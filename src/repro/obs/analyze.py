"""Trace and metrics analysis over exported observability artifacts.

Everything here works from *records* — the JSON shapes
:mod:`repro.obs.export` writes — never from live registries or tracers,
so any analysis that runs inside a live process reproduces identically
from the JSONL artifact alone (the ``repro obs`` CLI contract).  The
capabilities:

* :func:`load_artifact` — read one artifact back in: a checksummed
  JSONL export (``--metrics-out``/``--trace``) or a committed
  ``BENCH_*.json`` benchmark file, normalised to one
  :class:`RunArtifact`;
* :func:`load_timeseries` / :func:`load_flight` — the PR-10 telemetry
  artifacts: rotated tick segments (+ ``.diag`` sidecar) and flight
  dumps, with torn-tail tolerance matching the checkpoint journal;
* :func:`build_span_tree` — reconstruct the span forest from records in
  *any* order using ``span_id``/``parent_id`` links (positionally, via
  depth + start order, when IDs are absent);
* per-node **self time vs. cumulative time** (:class:`SpanNode`) and
  the :func:`critical_path` through the heaviest children;
* :func:`slowest_spans` — the top-N spans by self or cumulative time;
* :func:`percentile_from_buckets` + :func:`flatten` +
  :func:`diff_runs` — the flat metric view two runs are compared over,
  with a relative tolerance gate for CI.

>>> records = [
...     {"type": "span", "name": "run", "span_id": "a", "parent_id": "",
...      "depth": 0, "start_s": 0.0, "duration_ms": 10.0, "attrs": {}},
...     {"type": "span", "name": "step", "span_id": "b", "parent_id": "a",
...      "depth": 1, "start_s": 0.0, "duration_ms": 4.0, "attrs": {}},
... ]
>>> roots = build_span_tree(records)
>>> [(n.name, n.cumulative_ms, n.self_ms) for n in roots[0].walk()]
[('run', 10.0, 6.0), ('step', 4.0, 4.0)]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterator

__all__ = [
    "RunArtifact",
    "SpanNode",
    "Delta",
    "DiffReport",
    "TimeSeries",
    "FlightDump",
    "load_artifact",
    "load_timeseries",
    "load_flight",
    "build_span_tree",
    "critical_path",
    "slowest_spans",
    "percentile_from_buckets",
    "flatten",
    "diff_runs",
]

_METRIC_KINDS = frozenset({"counter", "gauge", "histogram"})


# -- artifacts -------------------------------------------------------------

@dataclass(slots=True)
class RunArtifact:
    """One observability artifact, normalised for analysis.

    ``metrics``/``spans`` hold the raw records; ``run_id`` comes from
    the run-ledger header (``None`` for artifacts without one, e.g.
    committed benchmark JSON).  ``flat`` is the comparable
    ``name -> value`` view :func:`diff_runs` consumes.
    """

    path: str
    run_id: str | None = None
    metrics: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    flat: dict[str, float] = field(default_factory=dict)


def load_artifact(path: str) -> RunArtifact:
    """Read one artifact: a JSONL export or a benchmark JSON file.

    JSONL exports are verified via their CRC footer
    (:func:`repro.state.atomic.read_jsonl`); a file that is not
    line-oriented JSON falls back to being parsed as one JSON document
    whose numeric leaves are flattened into dotted metric names — which
    is exactly the shape of the committed ``BENCH_*.json`` artifacts,
    so a run can be diffed directly against a committed baseline.
    """
    from repro.state.atomic import ArtifactError, read_jsonl

    try:
        records = read_jsonl(path)
    except (ArtifactError, ValueError):
        # A truncated JSONL export reaches this fallback too, and then
        # fails the whole-document parse as well; fold that failure
        # into ArtifactError so the CLI reports one clean line naming
        # the file instead of a json.JSONDecodeError traceback.
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError:
            raise ArtifactError(
                f"{path}: neither a valid JSONL export (bad or missing "
                f"integrity footer) nor a JSON document") from None
        if not isinstance(document, dict):
            raise ArtifactError(
                f"{path}: neither a JSONL export nor a JSON document")
        return RunArtifact(path=path, flat=_flatten_document(document))

    artifact = RunArtifact(path=path)
    for record in records:
        kind = record.get("type")
        if kind == "run":
            artifact.run_id = record.get("run_id")
        elif kind == "span":
            artifact.spans.append(record)
        elif kind in _METRIC_KINDS:
            artifact.metrics.append(record)
    artifact.flat = flatten(artifact.metrics)
    return artifact


def _flatten_document(document: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested JSON document, dotted-key flattened."""
    flat: dict[str, float] = {}
    for key, value in document.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_document(value, prefix=f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = value
    return flat


# -- telemetry artifacts ---------------------------------------------------

@dataclass(slots=True)
class TimeSeries:
    """One time-series export (``--timeseries-out``), loaded back in.

    ``samples`` are the deterministic tick records (main segments);
    ``diagnostics`` come from the wall-clock ``.diag`` sidecar when one
    exists.  ``complete`` is True when every main segment verified
    strictly — a crashed or killed run leaves a torn final segment,
    which the tolerant reader recovers (``complete=False``) and the
    drained-daemon chaos test forbids (``strict=True`` raises instead).
    """

    path: str
    run_id: str | None = None
    samples: list[dict] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)
    complete: bool = True


def load_timeseries(path: str, *, strict: bool = False) -> TimeSeries:
    """Read a rotated time-series export plus its ``.diag`` sidecar.

    ``strict=True`` refuses a torn final segment (the no-torn-tail
    assertion after a graceful drain); the default tolerates it like a
    checkpoint journal tail.  The sidecar is always read tolerantly —
    diagnostics are wall-clock best-effort by design — and a missing
    sidecar is simply an empty diagnostics list.
    """
    from repro.obs.export import list_segments, read_rotated_jsonl
    from repro.state.atomic import ArtifactError

    complete = True
    if strict:
        records = read_rotated_jsonl(path, strict=True)
    else:
        try:
            records = read_rotated_jsonl(path, strict=True)
        except ArtifactError:
            records = read_rotated_jsonl(path)
            complete = False
    series = TimeSeries(path=path, complete=complete)
    for record in records:
        kind = record.get("type")
        if kind == "run":
            series.run_id = record.get("run_id", series.run_id)
        elif kind == "sample":
            series.samples.append(record)
    diag_base = f"{path}.diag"
    if list_segments(diag_base):
        for record in read_rotated_jsonl(diag_base):
            if record.get("type") == "sample":
                series.diagnostics.append(record)
    return series


@dataclass(slots=True)
class FlightDump:
    """One flight-recorder dump artifact, loaded back in."""

    path: str
    reason: str
    capacity: int
    dropped: int
    run_id: str | None = None
    events: list[dict] = field(default_factory=list)


def load_flight(path: str) -> FlightDump:
    """Read one flight dump; verifies the CRC footer strictly.

    Flight dumps are written atomically (never torn), so unlike
    time-series segments there is no tolerant mode — a bad footer means
    the artifact is not trustworthy and the loader says so.
    """
    from repro.state.atomic import ArtifactError, read_jsonl

    records = read_jsonl(path)
    if not records or records[0].get("type") != "flight":
        raise ArtifactError(
            f"{path}: not a flight dump (missing 'flight' header record)")
    header = records[0]
    return FlightDump(
        path=path,
        reason=header.get("reason", ""),
        capacity=header.get("capacity", 0),
        dropped=header.get("dropped", 0),
        run_id=header.get("run_id"),
        events=[record for record in records[1:]
                if record.get("type") == "event"])


# -- span trees ------------------------------------------------------------

@dataclass(slots=True)
class SpanNode:
    """One span in a reconstructed trace tree."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def attrs(self) -> dict:
        return self.record.get("attrs", {})

    @property
    def cumulative_ms(self) -> float:
        """Wall time of the whole subtree (the span's own duration)."""
        return self.record["duration_ms"]

    @property
    def self_ms(self) -> float:
        """Time spent in this span outside any child span.

        Clamped at zero: adopted cross-process spans time children on a
        different (simulated) clock, so a parent measured on wall time
        can nominally under-run its children.
        """
        return max(0.0, self.cumulative_ms
                   - sum(child.cumulative_ms for child in self.children))

    def walk(self) -> Iterator["SpanNode"]:
        """This node then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _sibling_order(node: SpanNode) -> tuple:
    return (node.record.get("start_s", 0.0),
            node.record.get("span_id", ""), node.name)


def build_span_tree(records: list[dict]) -> list[SpanNode]:
    """Reconstruct the span forest; returns the root nodes.

    Reconstruction is ID-based — each record's ``parent_id`` either
    names another record's ``span_id`` or a span outside the artifact
    (making the record a root) — so records may arrive in any order.
    Siblings are ordered by ``(start_s, span_id)``, which is the start
    order for same-clock siblings and still deterministic for stitched
    cross-clock ones.  Records predating span IDs fall back to the
    positional (depth + file order) reconstruction.
    """
    spans = [record for record in records
             if record.get("type", "span") == "span"]
    if not spans:
        return []
    if not all(record.get("span_id") for record in spans):
        return _build_positional(spans)
    by_id = {record["span_id"]: SpanNode(record) for record in spans}
    roots: list[SpanNode] = []
    for node in by_id.values():
        parent = by_id.get(node.record.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in by_id.values():
        node.children.sort(key=_sibling_order)
    roots.sort(key=_sibling_order)
    return roots


def _build_positional(spans: list[dict]) -> list[SpanNode]:
    """Depth + order reconstruction for records without IDs."""
    roots: list[SpanNode] = []
    stack: list[SpanNode] = []
    for record in spans:
        node = SpanNode(record)
        depth = record.get("depth", 0)
        del stack[depth:]
        if stack:
            stack[-1].children.append(node)
        else:
            roots.append(node)
        stack.append(node)
    return roots


def critical_path(roots: list[SpanNode]) -> list[SpanNode]:
    """The heaviest root-to-leaf chain through the span forest.

    Starting from the most expensive root, repeatedly descend into the
    child with the largest cumulative time.  The result is the chain of
    spans an optimisation must shorten to move the run's end-to-end
    time — each node's ``self_ms`` is its own contribution.
    """
    if not roots:
        return []
    node = max(roots, key=lambda n: (n.cumulative_ms,) + _sibling_order(n))
    path = [node]
    while node.children:
        node = max(node.children,
                   key=lambda n: (n.cumulative_ms,) + _sibling_order(n))
        path.append(node)
    return path


def slowest_spans(records: list[dict], top: int = 10,
                  by: str = "cumulative") -> list[SpanNode]:
    """The ``top`` most expensive spans, by ``cumulative`` or ``self`` time."""
    if by not in ("cumulative", "self"):
        raise ValueError(f"by must be 'cumulative' or 'self', got {by!r}")
    nodes = [node for root in build_span_tree(records)
             for node in root.walk()]
    key = ((lambda n: n.self_ms) if by == "self"
           else (lambda n: n.cumulative_ms))
    nodes.sort(key=lambda n: (-key(n),) + _sibling_order(n))
    return nodes[:top]


# -- flat metric views -----------------------------------------------------

def percentile_from_buckets(buckets: list[dict], q: float) -> float:
    """:meth:`~repro.obs.metrics.Histogram.percentile` over exported buckets.

    ``buckets`` is the exported histogram shape (disjoint counts with a
    final ``+inf`` edge); the estimate and its error bound match the
    live method exactly, which is what keeps artifact-derived reports
    byte-identical to live ones.
    """
    from repro.obs.metrics import Histogram

    bounds = tuple(bucket["le"] for bucket in buckets[:-1])
    histogram = Histogram("percentile", bounds=bounds)
    for slot, bucket in enumerate(buckets):
        histogram.counts[slot] = bucket["count"]
        histogram.count += bucket["count"]
    return histogram.percentile(q)


def flatten(metric_records: list[dict]) -> dict[str, float]:
    """The comparable ``name -> value`` view of exported metric records.

    Matches :meth:`repro.obs.metrics.MetricsRegistry.flat` (histograms
    contribute ``.count``/``.mean``/``.p50``/``.p95``/``.p99``), so a
    diff against a live registry and against its export agree.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.merge([record for record in metric_records
                    if record.get("type") in _METRIC_KINDS])
    return registry.flat()


# -- run diffing -----------------------------------------------------------

@dataclass(slots=True)
class Delta:
    """One metric's change between a baseline run and a candidate run."""

    name: str
    baseline: float | None
    candidate: float | None
    #: Relative change ``(candidate - baseline) / |baseline|``; ``None``
    #: when either side is missing, ``inf`` for a zero baseline moving.
    relative: float | None
    violation: bool


@dataclass(slots=True)
class DiffReport:
    """A full two-run comparison, plus the tolerance verdict."""

    tolerance: float
    deltas: list[Delta]

    @property
    def violations(self) -> list[Delta]:
        return [delta for delta in self.deltas if delta.violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def diff_runs(baseline: dict[str, float], candidate: dict[str, float],
              *, tolerance: float = 0.25,
              metrics: list[str] | None = None) -> DiffReport:
    """Compare two flat metric views under a relative tolerance.

    A metric present in both runs violates when its relative change
    exceeds ``tolerance`` in either direction; a zero-valued baseline
    counts any nonzero candidate as a violation (the relative change is
    infinite).  Metrics present in only one run are *reported* (so
    schema drift is visible) but never gate — a gate that fails on
    every newly added counter would train people to ignore it.
    ``metrics`` optionally restricts the comparison to names matching
    any of the given :mod:`fnmatch`-style patterns.

    >>> report = diff_runs({"a": 10.0, "b": 0.0}, {"a": 14.0, "b": 0.0},
    ...                    tolerance=0.25)
    >>> [(d.name, d.violation) for d in report.deltas]
    [('a', True), ('b', False)]
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")

    def selected(name: str) -> bool:
        if not metrics:
            return True
        return any(fnmatchcase(name, pattern) for pattern in metrics)

    deltas: list[Delta] = []
    for name in sorted(set(baseline) | set(candidate)):
        if not selected(name):
            continue
        a, b = baseline.get(name), candidate.get(name)
        if a is None or b is None:
            deltas.append(Delta(name, a, b, None, False))
            continue
        if a == 0:
            relative = 0.0 if b == 0 else float("inf")
        else:
            relative = (b - a) / abs(a)
        deltas.append(Delta(name, a, b, relative,
                            abs(relative) > tolerance))
    return DiffReport(tolerance=tolerance, deltas=deltas)
