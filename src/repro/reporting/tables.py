"""ASCII table rendering for benchmark output.

Every benchmark prints the paper's rows next to the measured ones;
this renderer keeps that output aligned and diff-friendly.  It is also
the human-readable exporter for :mod:`repro.obs`:
:func:`render_metrics_summary` turns a metrics registry and a span
trace into the "where did the time go" report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.web.crawler import CrawlHealth

__all__ = ["render_table", "render_comparison", "render_crawl_health",
           "render_metrics_summary", "render_summary_records"]


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    materialised = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_comparison(title: str,
                      rows: Iterable[tuple[str, object, object]]) -> str:
    """Render (metric, paper value, measured value) comparison rows."""
    table_rows = [(name, paper, measured, _verdict(paper, measured))
                  for name, paper, measured in rows]
    return render_table(("metric", "paper", "measured", "match"),
                        table_rows, title=title)


def render_crawl_health(health: "CrawlHealth",
                        title: str = "Crawl health") -> str:
    """Render a :class:`~repro.web.crawler.CrawlHealth` summary.

    One row per outcome status, then one per error class — failures
    (tombstones) and the classes degraded visits recovered from — so a
    survey's denominator and its loss profile read off one table.
    """
    total = health.total or 1
    rows: list[tuple[object, object, object]] = [
        ("visited", health.total, ""),
        ("success", health.succeeded, f"{health.succeeded / total:.1%}"),
        ("degraded", health.degraded, f"{health.degraded / total:.1%}"),
        ("failed", health.failed, f"{health.failed / total:.1%}"),
        ("retried", health.retried, f"{health.retried / total:.1%}"),
        ("attempts total", health.total_attempts, ""),
        ("mean latency (ms)", round(health.mean_latency_ms, 1), ""),
    ]
    for label, count in sorted(health.failure_counts.items()):
        rows.append((f"failed: {label}", count, f"{count / total:.1%}"))
    for label, count in sorted(health.recovered_counts.items()):
        rows.append((f"recovered: {label}", count,
                     f"{count / total:.1%}"))
    # When the crawl ran under an enabled observability registry, the
    # health snapshot carries pipeline metrics — append them so the one
    # table answers both "what did we lose" and "where did matches go".
    for name, value in health.metrics.items():
        rows.append((name, value, ""))
    return render_table(("metric", "count", "share"), rows, title=title)


def render_metrics_summary(registry: "MetricsRegistry | None" = None,
                           tracer: "Tracer | None" = None,
                           title: str = "Observability summary",
                           run_id: str | None = None) -> str:
    """Render the one-screen observability report.

    Three stacked tables: a span rollup (count, total/mean duration,
    and share of top-level traced time) when ``tracer`` has finished
    spans, a distributions table (count, mean, and estimated
    p50/p95/p99 per histogram), then one row per counter/gauge from
    ``registry``.  ``run_id``, when known, heads the report so two
    renderings of the same run are trivially correlatable.  Either
    input may be ``None`` or empty — an empty report still renders
    (headers plus an explicit "(none recorded)" row) so callers can
    print it unconditionally.

    The renderer works from *export records* internally (see
    :func:`render_summary_records`), so re-rendering a run from its
    JSONL artifact reproduces the live report byte for byte.
    """
    from repro.obs.export import span_records

    spans = span_records(tracer) if tracer is not None else []
    metrics = registry.snapshot() if registry is not None else []
    return _render_summary(metrics, spans, title=title, run_id=run_id)


def render_summary_records(records: "Iterable[dict]",
                           title: str = "Observability summary") -> str:
    """:func:`render_metrics_summary` over exported artifact records.

    ``records`` is any mix of run/metric/span records (the
    concatenation of one run's ``--metrics-out`` and ``--trace`` files,
    say); the run-ledger header, when present, supplies the run ID.
    """
    metrics: list[dict] = []
    spans: list[dict] = []
    run_id = None
    for record in records:
        kind = record.get("type")
        if kind == "span":
            spans.append(record)
        elif kind == "run":
            run_id = record.get("run_id")
        elif kind in ("counter", "gauge", "histogram"):
            metrics.append(record)
    return _render_summary(metrics, spans, title=title, run_id=run_id)


def _render_summary(metrics: list[dict], spans: list[dict],
                    title: str, run_id: str | None) -> str:
    from repro.obs.analyze import percentile_from_buckets
    from repro.obs.metrics import MetricsRegistry

    header = title if run_id is None else f"{title} — run {run_id}"
    blocks: list[str] = [header]

    if spans:
        rollup: dict[str, list[float]] = {}
        order: list[str] = []
        for span in spans:
            stats = rollup.get(span["name"])
            if stats is None:
                stats = rollup[span["name"]] = [0.0, 0.0]
                order.append(span["name"])
            stats[0] += 1
            stats[1] += span["duration_ms"]
        # Share is relative to top-level traced time: nested spans count
        # inside their parents, so only depth-0 spans form the 100%.
        top_level_ms = sum(s["duration_ms"] for s in spans
                           if s["depth"] == 0)
        denominator = top_level_ms or sum(s[1] for s in rollup.values())
        span_rows = [
            (name, int(rollup[name][0]),
             f"{rollup[name][1]:.1f}",
             f"{rollup[name][1] / rollup[name][0]:.2f}",
             f"{rollup[name][1] / denominator:.1%}" if denominator else "")
            for name in order
        ]
        blocks.append(render_table(
            ("span", "count", "total ms", "mean ms", "share"),
            span_rows, title="Where the time went"))

    registry = MetricsRegistry()
    registry.merge(metrics)
    histogram_rows: list[tuple[object, ...]] = []
    metric_rows: list[tuple[object, object]] = []
    for record in registry.snapshot():
        label = record["name"]
        if record["labels"]:
            inner = ",".join(f"{k}={v}"
                             for k, v in record["labels"].items())
            label = f"{label}{{{inner}}}"
        if record["type"] == "histogram":
            count = record["count"]
            mean = record["sum"] / count if count else 0.0
            histogram_rows.append(
                (label, count, round(mean, 3),
                 *(round(percentile_from_buckets(record["buckets"], q), 3)
                   for q in (50, 95, 99))))
        else:
            metric_rows.append((label, record["value"]))
    if histogram_rows:
        blocks.append(render_table(
            ("histogram", "count", "mean", "p50", "p95", "p99"),
            histogram_rows, title="Distributions"))
    if not metric_rows:
        metric_rows = [("(none recorded)", "")]
    blocks.append(render_table(("metric", "value"), metric_rows,
                               title="Metrics"))
    return "\n\n".join(blocks)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:,.0f}"
    if isinstance(value, int):
        # No thousands separators below 10,000 — years print as years.
        return f"{value:,}" if abs(value) >= 10_000 else str(value)
    return str(value)


def _verdict(paper: object, measured: object,
             tolerance: float = 0.15) -> str:
    """A rough shape check: within ``tolerance`` relative error."""
    try:
        p = float(paper)   # type: ignore[arg-type]
        m = float(measured)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return ""
    if p == 0:
        return "=" if m == 0 else "~"
    rel = abs(m - p) / abs(p)
    if rel <= 0.02:
        return "=="
    if rel <= tolerance:
        return "~"
    return "!"
