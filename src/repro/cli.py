"""Command-line interface: every paper analysis from one entry point.

Usage::

    python -m repro table1                # yearly whitelist activity
    python -m repro growth                # Figure 3 sparkline
    python -m repro scope                 # Figure 4 scope classes
    python -m repro table2                # Alexa partitions
    python -m repro survey --top 800      # Section 5 crawl (scaled)
    python -m repro parking               # Table 3 zone scan (scaled)
    python -m repro exploit               # Figure 5 bypass PoC
    python -m repro perception            # Figure 9 summary
    python -m repro afilters              # Section 7 A-groups
    python -m repro transparency          # Section 8 report
    python -m repro blockable reddit.com  # Blockable Items panel
    python -m repro obs summary run.jsonl # re-render a run's summary
    python -m repro obs diff A B          # perf gate: compare two runs
    python -m repro obs watch ts.jsonl    # live telemetry view
    python -m repro obs flight dump.jsonl # post-mortem event sequence
    python -m repro serve --port 8791     # filter-match serving daemon

Heavy stages honour ``--fast`` (small demo RSA keys) and the scale
flags, so everything is runnable on a laptop in seconds to minutes.
The shared flags (``--seed``, ``--fast``, ``--metrics-out``, ...) go
after the subcommand; placed before it they are a usage error.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.core.study import AcceptableAdsStudy, StudyConfig
from repro.measurement.survey import SurveyConfig
from repro.parallel.leases import DEFAULT_LEASE_SIZE

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse ``type`` for an int option with a lower bound (and,
    given ``maximum``, an upper one).

    An out-of-range value becomes a usage error naming the option
    (exit 2), not a traceback from deep inside the run.
    """
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum}, got {value}")
        return value
    parse.__name__ = "int"           # argparse's "invalid int value"
    return parse


def _fraction(text: str) -> float:
    """argparse ``type`` for a float in ``[0, 1]``."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and 1, got {text}")
    return value


_fraction.__name__ = "float"


def _positive_float(text: str) -> float:
    """argparse ``type`` for a float strictly above zero."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


_positive_float.__name__ = "float"


def _non_negative_float(text: str) -> float:
    """argparse ``type`` for a float at or above zero."""
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


_non_negative_float.__name__ = "float"


def _host(text: str) -> str:
    """argparse ``type`` for a bare host name such as ``example.com``.

    Checked with :func:`repro.web.url.parse_url`'s host rules; a scheme,
    port or path, an empty label or a bad character is a usage error,
    not a traceback from the page visit.
    """
    from repro.web.url import URLError, parse_url

    try:
        host = parse_url(text).host
    except URLError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if host != text.lower():
        raise argparse.ArgumentTypeError(
            f"expected a bare host name such as example.com, got {text!r}")
    return host


#: The largest ``repro exploit --bits``.  Pollard's rho factored 88-bit
#: moduli in 2-12 s over four seeds, far inside the 300 s budget; a
#: 96-bit one took 202 s.
_MAX_EXPLOIT_BITS = 88

#: The largest ``repro survey --workers``.  One parent process dispatches
#: every lease and restores every unit's result itself; at 2 workers it
#: was measured spending about half of a serial run's CPU doing so, so it
#: saturates long before 64 workers.  The ceiling also keeps a mistyped
#: count from forking thousands of processes.
_MAX_WORKERS = 64


def _port(text: str) -> int:
    """argparse ``type`` for a TCP port number (0 picks a free one)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and 65535, got {value}")
    return value


_port.__name__ = "int"


class _ArgumentParser(argparse.ArgumentParser):
    """Makes ``--option=--`` a usage error: Python 3.11's argparse strips
    that value and passes an unchecked ``[]`` (``--top=--`` crashed the
    survey).  Subparsers inherit the class."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=2015)
    common.add_argument("--fast", action="store_true",
                        help="use small demo RSA keys (faster)")
    common.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="collect pipeline metrics (repro.obs) and "
                             "write them as JSON lines to PATH; also "
                             "prints the observability summary table")
    common.add_argument("--trace", metavar="PATH", default=None,
                        help="record nested timing spans and write them "
                             "as JSON lines to PATH; also prints the "
                             "observability summary table")
    common.add_argument("--timeseries-out", metavar="PATH", default=None,
                        help="stream periodic metric snapshots (one "
                             "sample per tick) to size-rotated JSONL "
                             "segments PATH.000, PATH.001, ...; watch "
                             "live with 'repro obs watch PATH'")
    common.add_argument("--timeseries-interval", type=_positive_float,
                        default=1.0,
                        metavar="SECONDS",
                        help="seconds between time-series samples "
                             "(simulated seconds for survey/history "
                             "runs, wall seconds for serve; default 1)")
    common.add_argument("--flight-out", metavar="PATH", default=None,
                        help="keep a bounded ring of lifecycle events "
                             "and dump it to PATH on crash, SIGUSR2, "
                             "or exit ('repro obs flight PATH' renders "
                             "it)")
    common.add_argument("--flight-capacity", type=_int_at_least(1),
                        default=None,
                        metavar="N",
                        help="flight-recorder ring capacity "
                             "(default 2048)")

    parser = _ArgumentParser(
        prog="repro",
        description="Reproduction of 'Measuring the Impact and "
                    "Perception of Acceptable Advertisements' (IMC'15)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    add("table1", "Table 1: yearly whitelist activity")
    add("growth", "Figure 3: whitelist growth curve")
    add("scope", "Figure 4: whitelist scope classes")
    add("table2", "Table 2: Alexa partitions")

    survey = add("survey", "Section 5 site survey (scaled)")
    survey.add_argument("--top", type=_int_at_least(1), default=800,
                        help="size of the top group (paper: 5000)")
    survey.add_argument("--stratum", type=_int_at_least(0), default=150,
                        help="per-stratum sample size (paper: 1000)")
    survey.add_argument("--fault-rate", type=_fraction, default=0.0,
                        help="fraction of domains given an injected "
                             "fault (0 disables injection)")
    survey.add_argument("--fault-seed", type=int, default=0,
                        help="seed for fault plan + backoff jitter")
    survey.add_argument("--max-retries", type=_int_at_least(0),
                        default=2,
                        help="retries per target beyond the first "
                             "attempt")
    survey.add_argument("--workers", type=_int_at_least(1, _MAX_WORKERS),
                        default=None,
                        metavar="N",
                        help="crawl across N supervised worker "
                             f"processes, 1 to {_MAX_WORKERS} (results "
                             "identical for every N; never more workers "
                             "than units; default: in-process)")
    survey.add_argument("--lease-size", type=_int_at_least(1),
                        default=DEFAULT_LEASE_SIZE,
                        metavar="K",
                        help="most units granted to a worker at once "
                             f"(default {DEFAULT_LEASE_SIZE}); grants "
                             "shrink toward 1 near the end of the run. "
                             "Each lease costs a pipe round trip and a "
                             "journal fsync")
    survey.add_argument("--max-worker-restarts", type=_int_at_least(0),
                        default=4,
                        metavar="N",
                        help="replacement workers the scheduler may "
                             "fork across the whole run before giving "
                             "up (default 4)")
    survey.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="journal crawled targets to PATH so a "
                             "crashed survey can be resumed")
    survey.add_argument("--resume", action="store_true",
                        help="resume from an existing --checkpoint "
                             "journal instead of starting over (safe "
                             "when the journal does not exist yet)")

    parking = add("parking", "Table 3 zone scan")
    parking.add_argument("--divisor", type=_int_at_least(1), default=5_000,
                         help="zone scale divisor")

    exploit = add("exploit", "Figure 5 sitekey bypass")
    exploit.add_argument("--bits", default=64,
                         type=_int_at_least(16, _MAX_EXPLOIT_BITS),
                         help="weak-key size to factor, 16 to "
                              f"{_MAX_EXPLOIT_BITS} bits (default 64)")

    add("perception", "Figure 9 perception summary")
    add("afilters", "Section 7 A-filter mining")
    add("hygiene", "Section 8 hygiene audit")
    add("transparency", "Section 8 transparency report")

    temporal = add("temporal",
                   "survey under historical whitelist snapshots")
    temporal.add_argument("--top", type=_int_at_least(1), default=300)

    blockable = add("blockable", "Blockable Items panel for one domain")
    blockable.add_argument("domain", type=_host,
                           help="a bare host name, e.g. reddit.com")

    serve = add("serve", "resilient filter-match serving daemon")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=8791,
                       help="bind port; 0 picks a free one "
                            "(default 8791)")
    serve.add_argument("--max-inflight", type=_int_at_least(1),
                       default=8,
                       help="concurrent requests executed at once")
    serve.add_argument("--max-queue", type=_int_at_least(0),
                       default=64,
                       help="requests allowed to wait for a slot; "
                            "beyond this the daemon sheds (429)")
    serve.add_argument("--deadline-ms", type=_positive_float,
                       default=1_000.0,
                       help="default per-request budget when the "
                            "client sends no X-Repro-Deadline-Ms")
    serve.add_argument("--drain-timeout", type=_non_negative_float,
                       default=10.0, metavar="SECONDS",
                       help="how long SIGTERM waits for in-flight "
                            "requests before exiting anyway")
    serve.add_argument("--snapshot-dir", metavar="DIR", default=None,
                       help="epoch-keyed snapshot store: boot from "
                            "the latest persisted epoch and persist "
                            "every swapped reload there")
    serve.add_argument("--lists", nargs="+", metavar="PATH",
                       default=None,
                       help="filter-list files to serve (list name = "
                            "file name stem); default: the study's "
                            "EasyList + Acceptable Ads whitelist")
    serve.add_argument("--allow-test-delay", action="store_true",
                       help="honour the X-Repro-Delay-Ms request "
                            "header (drain/chaos tests and the load "
                            "benchmark use it to stretch requests)")

    obs = sub.add_parser(
        "obs", help="analyse exported observability artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    summary = obs_sub.add_parser(
        "summary", help="re-render the observability summary from "
                        "exported JSONL artifacts")
    summary.add_argument("paths", nargs="+", metavar="PATH",
                         help="one run's artifacts (--metrics-out "
                              "and/or --trace files)")

    slow = obs_sub.add_parser(
        "slow", help="the top-N most expensive spans in a trace")
    slow.add_argument("paths", nargs="+", metavar="PATH")
    slow.add_argument("--top", type=_int_at_least(1), default=10,
                      help="how many spans to show")
    slow.add_argument("--by", choices=("cumulative", "self"),
                      default="cumulative",
                      help="rank by subtree time or own time")

    tree = obs_sub.add_parser(
        "tree", help="render the reconstructed span tree, with self "
                     "vs. cumulative time and the critical path")
    tree.add_argument("paths", nargs="+", metavar="PATH")

    diff = obs_sub.add_parser(
        "diff", help="compare two runs' metrics under a relative "
                     "tolerance; exits 1 on violations (the CI gate)")
    diff.add_argument("baseline", metavar="BASELINE",
                      help="JSONL export or committed BENCH_*.json")
    diff.add_argument("candidate", metavar="CANDIDATE")
    diff.add_argument("--tolerance", type=_non_negative_float,
                      default=0.25,
                      help="max |relative change| before failing "
                           "(default 0.25)")
    diff.add_argument("--metric", action="append", default=None,
                      metavar="GLOB", dest="metric",
                      help="restrict the gate to metrics matching this "
                           "fnmatch pattern (repeatable)")
    diff.add_argument("--json", action="store_true",
                      help="emit the full report as one JSON document "
                           "(machine-readable; same exit codes)")

    watch = obs_sub.add_parser(
        "watch", help="live view of a --timeseries-out export: latest "
                      "sample, progress/ETA, worker table")
    watch.add_argument("path", metavar="PATH",
                       help="the --timeseries-out base path")
    watch.add_argument("--once", action="store_true",
                       help="render one frame and exit (CI smoke mode)")
    watch.add_argument("--interval", type=_positive_float, default=2.0,
                       metavar="SECONDS",
                       help="refresh period (default 2)")
    watch.add_argument("--metric", action="append", default=None,
                       metavar="GLOB", dest="metric",
                       help="only show metrics matching this fnmatch "
                            "pattern (repeatable)")

    timeline = obs_sub.add_parser(
        "timeline", help="sparkline selected metrics across every tick "
                         "of a --timeseries-out export")
    timeline.add_argument("path", metavar="PATH")
    timeline.add_argument("--metric", action="append", default=None,
                          metavar="GLOB", dest="metric",
                          help="metrics to plot (fnmatch, repeatable; "
                               "default: run.progress.* gauges)")
    timeline.add_argument("--width", type=_int_at_least(1), default=60,
                          help="sparkline width in characters")

    flight = obs_sub.add_parser(
        "flight", help="render a flight-recorder dump: the event "
                       "sequence that led to a crash or drain")
    flight.add_argument("path", metavar="PATH",
                        help="the --flight-out dump file")
    flight.add_argument("--kind", action="append", default=None,
                        metavar="GLOB", dest="kind",
                        help="only show events whose kind matches this "
                             "fnmatch pattern (repeatable)")
    return parser


def _study(args) -> AcceptableAdsStudy:
    return AcceptableAdsStudy(StudyConfig(
        seed=args.seed,
        key_bits=128 if args.fast else 512,
        survey=SurveyConfig(
            top_n=getattr(args, "top", 800),
            stratum_size=getattr(args, "stratum", 150),
            fault_rate=getattr(args, "fault_rate", 0.0),
            fault_seed=getattr(args, "fault_seed", 0),
            max_retries=getattr(args, "max_retries", 2),
            workers=getattr(args, "workers", None),
            lease_size=getattr(args, "lease_size", DEFAULT_LEASE_SIZE),
            max_worker_restarts=getattr(
                args, "max_worker_restarts", 4)),
        zone_scale_divisor=getattr(args, "divisor", 5_000),
        checkpoint=getattr(args, "_checkpoint", None),
    ))


def _cmd_table1(args, out) -> int:
    from repro.reporting.tables import render_table

    study = _study(args)
    rows = study.table1()
    out.write(render_table(
        ("year", "revisions", "filters+", "filters-", "domains+",
         "domains-"),
        [(r.year, r.revisions, r.filters_added, r.filters_removed,
          r.domains_added, r.domains_removed) for r in rows],
        title="Table 1 — yearly whitelist activity") + "\n")
    cadence = study.cadence()
    out.write(f"one update every {cadence.days_per_update:.2f} days, "
              f"{cadence.changes_per_update:.1f} changes each\n")
    return 0


def _cmd_growth(args, out) -> int:
    from repro.reporting.series import find_jumps, sparkline

    study = _study(args)
    points = study.figure3()
    counts = [p.filters for p in points]
    out.write("Figure 3 — whitelist growth\n")
    out.write("  " + sparkline(counts, width=70) + "\n")
    out.write(f"  {counts[0]} filters (Rev 0) -> {counts[-1]:,} "
              f"(Rev {points[-1].rev})\n")
    for rev, delta in find_jumps(counts, top=2):
        out.write(f"  jump: Rev {rev} +{delta} "
                  f"({points[rev].when.isoformat()})\n")
    return 0


def _cmd_scope(args, out) -> int:
    study = _study(args)
    scope = study.scope
    out.write("Figure 4 — whitelist scope at Rev 988\n")
    out.write(f"  restricted:   {scope.restricted:,} "
              f"({scope.restricted_fraction:.1%})\n")
    out.write(f"  unrestricted: {scope.unrestricted}\n")
    out.write(f"  sitekey:      {scope.sitekey_filters} filters, "
              f"{len(scope.sitekeys)} keys\n")
    out.write(f"  FQ domains:   {len(scope.fq_domains):,}; e2LDs: "
              f"{len(scope.effective_second_level_domains):,}\n")
    return 0


def _cmd_table2(args, out) -> int:
    from repro.measurement.stats import table2_partitions
    from repro.reporting.tables import render_table

    study = _study(args)
    rows = table2_partitions(study.whitelist,
                             study.history.population.ranking,
                             scope=study.scope)
    out.write(render_table(
        ("partition", "whitelisted e2LDs", "%"),
        [("All" if r.partition is None else f"Top {r.partition:,}",
          r.count,
          "" if r.fraction is None else f"{r.fraction:.2%}")
         for r in rows],
        title="Table 2 — whitelisted domains by popularity") + "\n")
    return 0


def _cmd_survey(args, out) -> int:
    from repro.measurement.stats import (section51_headline,
                                         table4_top_filters)
    from repro.reporting.tables import render_crawl_health, render_table

    study = _study(args)
    result = study.site_survey
    head = section51_headline(result.top5k)
    n = head.surveyed
    out.write(f"surveyed {n:,} top-group domains: "
              f"{head.any_activation / n:.1%} any activation, "
              f"{head.whitelist_activation / n:.1%} whitelist "
              "(paper: 79.1% / 58.7%)\n")
    out.write(render_table(
        ("rank", "domains", "%", "filter"),
        [(r.rank, r.domains, f"{r.fraction_of_group:.1%}",
          r.filter_text[:54])
         for r in table4_top_filters(result.top5k, top=10)],
        title="Table 4 (top 10)") + "\n")
    out.write(render_crawl_health(result.crawl_health()) + "\n")
    return 0


def _cmd_parking(args, out) -> int:
    from repro.reporting.tables import render_table

    study = _study(args)
    results = study.parking_scan
    divisor = study.config.zone_scale_divisor
    rows = [(name, r.confirmed, r.scaled_confirmed(divisor))
            for name, r in results.items()]
    total = sum(r[2] for r in rows)
    out.write(render_table(
        ("service", "confirmed (scaled)", "extrapolated"),
        rows, title=f"Table 3 — zone divisor {divisor}") + "\n")
    out.write(f"total extrapolated: {total:,} (paper: 2,676,165)\n")
    return 0


def _cmd_exploit(args, out) -> int:
    from repro.filters.engine import AdblockEngine
    from repro.filters.filterlist import parse_filter_list
    from repro.measurement.easylist import build_easylist
    from repro.sitekey.der import public_key_to_base64
    from repro.sitekey.factoring import factor_sitekey, run_bypass_demo
    from repro.sitekey.rsa import generate_keypair

    victim = generate_keypair(args.bits, seed=args.seed)
    engine = AdblockEngine()
    engine.subscribe(build_easylist())
    engine.subscribe(parse_filter_list(
        f"@@$sitekey={public_key_to_base64(victim.public)},document",
        name="exceptionrules"))
    factored = factor_sitekey(victim.public, time_budget=300.0)
    demo = run_bypass_demo(engine, factored)
    out.write(f"factored {args.bits}-bit sitekey in "
              f"{factored.elapsed_seconds:.3f}s\n")
    out.write(f"without key: {demo.blocked_without_key}/"
              f"{demo.test_requests} blocked; with forged key: "
              f"{demo.blocked_with_key} blocked\n")
    out.write(f"full bypass: {demo.fully_bypassed}\n")
    return 0 if demo.fully_bypassed else 1


def _cmd_perception(args, out) -> int:
    from repro.perception.ads import AdClass
    from repro.perception.survey import run_perception_survey
    from repro.reporting.tables import render_table

    result = run_perception_survey(seed=args.seed)
    table = result.figure9d()
    out.write(render_table(
        ("class", "attention", "distinguished", "obscuring"),
        [(c.value,) + tuple(f"{table[c][s][0]:+.3f}"
                            for s in ("attention", "distinguished",
                                      "obscuring"))
         for c in AdClass],
        title="Figure 9(d) — class means") + "\n")
    from repro.core.policy import policy_disagreement

    out.write(f"respondents disagreeing with the global whitelist: "
              f"{policy_disagreement(result):.0%}\n")
    return 0


def _cmd_afilters(args, out) -> int:
    study = _study(args)
    report = study.a_filters
    out.write(f"A-filter groups: {report.total_added} added, "
              f"{len(report.removed)} removed, "
              f"{len(report.active)} active\n")
    for group in report.readded:
        out.write(f"  A{group.number} re-added as A{group.readded_as}\n")
    return 0


def _cmd_hygiene(args, out) -> int:
    study = _study(args)
    hygiene = study.hygiene
    out.write(f"duplicates: {hygiene.duplicate_filter_count}; "
              f"malformed: {hygiene.malformed_count}; "
              f"truncated: {hygiene.truncated_count}\n")
    return 0


def _cmd_transparency(args, out) -> int:
    out.write(_study(args).transparency_report() + "\n")
    return 0


def _cmd_temporal(args, out) -> int:
    from repro.measurement.temporal import temporal_survey
    from repro.reporting.tables import render_table

    study = _study(args)
    points = temporal_survey(study.history, top_n=args.top)
    out.write(render_table(
        ("snapshot", "rev", "filters", "sites w/ whitelist ads"),
        [(p.when.isoformat(), p.rev, p.whitelist_filters,
          f"{p.whitelist_activation_fraction:.1%}") for p in points],
        title="Survey under historical whitelists") + "\n")
    return 0


def _cmd_blockable(args, out) -> int:
    from repro.measurement.survey import build_engines, \
        make_profile_factory
    from repro.web.browser import InstrumentedBrowser
    from repro.web.crawler import CrawlTarget
    from repro.web.devtools import render_blockable_items

    study = _study(args)
    ranking = study.history.population.ranking
    rank = ranking.rank_of(args.domain) or 999_999
    engine, _, _ = build_engines(study.history)
    factory = make_profile_factory(study.history)
    browser = InstrumentedBrowser(engine)
    visit = browser.visit(factory(CrawlTarget(domain=args.domain,
                                              rank=rank)))
    out.write(render_blockable_items(visit) + "\n")
    return 0


def _serve_sources(args, out):
    """Resolve the daemon's boot filter lists, or ``None`` + error.

    Precedence: explicit ``--lists`` files, then the newest epoch in
    ``--snapshot-dir`` (a restart resumes exactly the epoch it last
    served), then the study's own EasyList + Acceptable Ads whitelist.
    """
    import os

    if args.lists:
        sources = []
        for path in args.lists:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                out.write(f"error: {exc}\n")
                return None
            name = os.path.splitext(os.path.basename(path))[0]
            sources.append((name, text))
        return sources
    if args.snapshot_dir:
        from repro.state.snapshots import SnapshotStore
        stored = SnapshotStore(args.snapshot_dir).load_latest()
        if stored is not None:
            epoch, sources = stored
            out.write(f"booting from stored snapshot epoch {epoch}\n")
            return sources
    from repro.measurement.survey import build_filter_lists

    return [(fl.name, "\n".join(entry.text for entry in fl.entries))
            for fl in build_filter_lists(_study(args).history)]


def _cmd_serve(args, out) -> int:
    from repro.obs import OBS, observe
    from repro.serve import (ReloadError, Reloader, ServeConfig,
                             ServeDaemon, SnapshotHolder)
    from repro.state.snapshots import SnapshotStore

    sources = _serve_sources(args, out)
    if sources is None:
        return 2
    store = (SnapshotStore(args.snapshot_dir)
             if args.snapshot_dir else None)

    def run() -> int:
        try:
            # Store-aware boot: a persisted compiled-index artifact for
            # these exact lists skips keyword-bucket assignment.
            holder = SnapshotHolder.from_sources(sources, store)
        except ReloadError as exc:
            out.write(f"error: {exc}\n")
            return 2
        if store is not None:
            from repro.serve.reload import persist_snapshot_artifact
            persist_snapshot_artifact(store, holder.current(), sources)
        daemon = ServeDaemon(
            holder,
            ServeConfig(host=args.host, port=args.port,
                        max_inflight=args.max_inflight,
                        max_queue=args.max_queue,
                        default_deadline_ms=args.deadline_ms,
                        drain_timeout_s=args.drain_timeout,
                        allow_test_delay=args.allow_test_delay,
                        telemetry_interval_s=args.timeseries_interval),
            reloader=Reloader(holder, store=store))
        daemon.install_signal_handlers()
        host, port = daemon.start()
        snapshot = holder.current()
        out.write(f"serving epoch {snapshot.epoch} "
                  f"({snapshot.filter_count:,} filters) on "
                  f"http://{host}:{port}\n")
        if hasattr(out, "flush"):
            out.flush()
        daemon.wait_stopped()
        out.write("drained and stopped\n")
        return 0

    if OBS.enabled:
        # Already under main()'s --metrics-out/--trace wrapper; the
        # export happens after the daemon drains and run() returns.
        return run()
    with observe(run_id=_derive_run_id(args)):
        return run()


def _obs_load(paths, out):
    """Load artifacts, or write an error and return ``None``."""
    from repro.obs.analyze import load_artifact
    from repro.state.atomic import ArtifactError

    artifacts = []
    for path in paths:
        try:
            artifacts.append(load_artifact(path))
        except (OSError, ArtifactError) as exc:
            out.write(f"error: {exc}\n")
            return None
    return artifacts


def _obs_records(artifacts) -> list[dict]:
    """One run's records, re-assembled from its artifact files."""
    records: list[dict] = []
    run_id = next((a.run_id for a in artifacts if a.run_id), None)
    if run_id is not None:
        records.append({"type": "run", "run_id": run_id})
    for artifact in artifacts:
        records.extend(artifact.metrics)
    for artifact in artifacts:
        records.extend(artifact.spans)
    return records


def _obs_spans(artifacts) -> list[dict]:
    return [record for artifact in artifacts for record in artifact.spans]


def _obs_diff_json(report, out) -> int:
    """The machine-readable diff the CI perf-gate consumes.

    ``relative`` can be infinite (zero baseline moving); JSON has no
    Infinity, so non-finite values are serialised as strings (``"inf"``)
    and the document stays loadable by any strict parser.
    """
    import json
    import math

    def jsonable(value):
        if value is None or math.isfinite(value):
            return value
        return str(value)           # "inf" / "-inf" / "nan"

    document = {
        "tolerance": report.tolerance,
        "ok": report.ok,
        "metrics": len(report.deltas),
        "violations": len(report.violations),
        "deltas": [{
            "name": delta.name,
            "baseline": delta.baseline,
            "candidate": delta.candidate,
            "relative": jsonable(delta.relative),
            "violation": delta.violation,
        } for delta in report.deltas],
    }
    out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0 if report.ok else 1


def _metric_selector(patterns):
    from fnmatch import fnmatchcase

    def selected(name: str) -> bool:
        if not patterns:
            return True
        return any(fnmatchcase(name, pattern) for pattern in patterns)
    return selected


def _cmd_obs_watch(args, out) -> int:
    """Render a --timeseries-out export, looping until interrupted."""
    import time as time_module

    from repro.obs.analyze import load_timeseries
    from repro.reporting.tables import render_table
    from repro.state.atomic import ArtifactError

    selected = _metric_selector(args.metric)
    try:
        while True:
            try:
                series = load_timeseries(args.path)
            except (OSError, ArtifactError) as exc:
                out.write(f"error: {exc}\n")
                return 2
            latest = series.samples[-1] if series.samples else None
            state = "sealed" if series.complete else "live"
            run = f" run {series.run_id}" if series.run_id else ""
            out.write(f"== {args.path}{run} — "
                      f"{len(series.samples)} samples ({state})\n")
            if latest is not None:
                rows = [(name, value) for name, value
                        in sorted(latest["metrics"].items())
                        if selected(name)]
                out.write(render_table(
                    ("metric", "value"), rows,
                    title=f"tick {latest['tick']} "
                          f"@ t={latest['t_s']}s") + "\n")
            if series.diagnostics:
                diag = series.diagnostics[-1]
                out.write(render_table(
                    ("diagnostic", "value"),
                    sorted(diag["metrics"].items()),
                    title=f"execution (wall t={diag['t_s']}s)") + "\n")
            if args.once:
                return 0
            if hasattr(out, "flush"):
                out.flush()
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_obs_timeline(args, out) -> int:
    """Sparkline selected metrics across a time-series export's ticks."""
    from repro.obs.analyze import load_timeseries
    from repro.reporting.series import sparkline
    from repro.state.atomic import ArtifactError

    try:
        series = load_timeseries(args.path)
    except (OSError, ArtifactError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    if not series.samples:
        out.write("(no samples)\n")
        return 0
    selected = _metric_selector(args.metric or ["run.progress.*"])
    names = sorted({name for sample in series.samples
                    for name in sample.get("metrics", {})
                    if selected(name)})
    if not names:
        out.write("(no matching metrics)\n")
        return 0
    ticks = len(series.samples)
    out.write(f"{args.path}: {ticks} ticks, "
              f"t={series.samples[-1]['t_s']}s\n")
    for name in names:
        values, last = [], 0.0
        for sample in series.samples:
            last = sample["metrics"].get(name, last)
            values.append(last)
        out.write(f"  {name}\n    "
                  f"{sparkline(values, width=args.width)}  "
                  f"last={values[-1]}\n")
    return 0


def _cmd_obs_flight(args, out) -> int:
    """Render one flight dump's event sequence."""
    from repro.obs.analyze import load_flight
    from repro.reporting.tables import render_table
    from repro.state.atomic import ArtifactError

    try:
        dump = load_flight(args.path)
    except (OSError, ArtifactError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    selected = _metric_selector(args.kind)
    run = f" run {dump.run_id}" if dump.run_id else ""
    out.write(f"flight dump {args.path}{run}: reason={dump.reason}, "
              f"{len(dump.events)} events "
              f"(capacity {dump.capacity}, dropped {dump.dropped})\n")
    rows = []
    for event in dump.events:
        if not selected(event.get("kind", "")):
            continue
        attrs = ",".join(f"{key}={value}" for key, value
                         in sorted(event.get("attrs", {}).items()))
        rows.append((event.get("seq"), f"{event.get('t_s', 0.0):.3f}",
                     event.get("kind", ""), attrs,
                     event.get("span_id", "")))
    out.write(render_table(
        ("seq", "t_s", "kind", "attrs", "span"), rows,
        title="event sequence (oldest first)") + "\n")
    return 0


def _cmd_obs(args, out) -> int:
    """Dispatch the ``repro obs`` analysis subcommands.

    Every subcommand works from exported artifacts alone — no live
    registry or tracer — so any report printed during a run can be
    reproduced later from its ``--metrics-out``/``--trace`` files.
    """
    from repro.obs.analyze import (build_span_tree, critical_path,
                                   diff_runs, slowest_spans)
    from repro.reporting.tables import render_summary_records, render_table

    if args.obs_command == "watch":
        return _cmd_obs_watch(args, out)
    if args.obs_command == "timeline":
        return _cmd_obs_timeline(args, out)
    if args.obs_command == "flight":
        return _cmd_obs_flight(args, out)

    if args.obs_command == "diff":
        loaded = _obs_load([args.baseline, args.candidate], out)
        if loaded is None:
            return 2
        baseline, candidate = loaded
        report = diff_runs(baseline.flat, candidate.flat,
                           tolerance=args.tolerance, metrics=args.metric)
        if args.json:
            return _obs_diff_json(report, out)
        rows = []
        for delta in report.deltas:
            change = ("" if delta.relative is None
                      else f"{delta.relative:+.1%}")
            verdict = "FAIL" if delta.violation else (
                "" if delta.relative is None else "ok")
            rows.append((delta.name,
                         "-" if delta.baseline is None else delta.baseline,
                         "-" if delta.candidate is None else delta.candidate,
                         change, verdict))
        out.write(render_table(
            ("metric", "baseline", "candidate", "change", "verdict"),
            rows,
            title=f"Run diff — tolerance {args.tolerance:.0%}") + "\n")
        if report.ok:
            out.write(f"ok: {len(report.deltas)} metrics within "
                      f"tolerance\n")
            return 0
        out.write(f"FAIL: {len(report.violations)} of "
                  f"{len(report.deltas)} metrics moved more than "
                  f"{args.tolerance:.0%}\n")
        return 1

    artifacts = _obs_load(args.paths, out)
    if artifacts is None:
        return 2

    if args.obs_command == "summary":
        out.write(render_summary_records(_obs_records(artifacts)) + "\n")
        return 0

    if args.obs_command == "slow":
        nodes = slowest_spans(_obs_spans(artifacts), top=args.top,
                              by=args.by)
        out.write(render_table(
            ("span", "cumulative ms", "self ms", "attrs"),
            [(n.name, f"{n.cumulative_ms:.3f}", f"{n.self_ms:.3f}",
              ",".join(f"{k}={v}" for k, v in sorted(n.attrs.items())))
             for n in nodes],
            title=f"Slowest spans (by {args.by} time)") + "\n")
        return 0

    # tree
    roots = build_span_tree(_obs_spans(artifacts))
    if not roots:
        out.write("(no spans)\n")
        return 0
    hot = {id(node) for node in critical_path(roots)}

    def emit(node, indent: int) -> None:
        mark = " *" if id(node) in hot else ""
        attrs = ",".join(f"{k}={v}"
                         for k, v in sorted(node.attrs.items()))
        suffix = f"  [{attrs}]" if attrs else ""
        out.write(f"{'  ' * indent}{node.name}  "
                  f"{node.cumulative_ms:.3f}ms "
                  f"(self {node.self_ms:.3f}ms){suffix}{mark}\n")
        for child in node.children:
            emit(child, indent + 1)

    for root in roots:
        emit(root, 0)
    out.write("(* = critical path)\n")
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "growth": _cmd_growth,
    "scope": _cmd_scope,
    "table2": _cmd_table2,
    "survey": _cmd_survey,
    "parking": _cmd_parking,
    "exploit": _cmd_exploit,
    "perception": _cmd_perception,
    "afilters": _cmd_afilters,
    "hygiene": _cmd_hygiene,
    "transparency": _cmd_transparency,
    "temporal": _cmd_temporal,
    "blockable": _cmd_blockable,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}

#: Flags excluded from run-identity: execution placement and output
#: paths change *how* a run executes, never *what* it computes, so two
#: invocations differing only in these share a run ID (the property the
#: cross-worker trace-identity guarantee hangs off).
_RUN_ID_EXCLUDE = {"workers", "lease_size",
                   "max_worker_restarts", "checkpoint", "resume",
                   "metrics_out", "trace", "timeseries_out",
                   "timeseries_interval", "flight_out",
                   "flight_capacity"}


def _derive_run_id(args) -> str:
    from repro.obs import derive_run_id

    identity = {key: value for key, value in vars(args).items()
                if not key.startswith("_")
                and key not in _RUN_ID_EXCLUDE}
    return derive_run_id(identity)


def _open_checkpoint(args, out):
    """Create or resume the survey's checkpoint from its CLI flags.

    Returns ``(checkpoint, status)``: a usable checkpoint (or ``None``
    when none was requested — always, for commands other than
    ``survey``) and a non-zero status on refusal — an unsafe resume
    (journal from a different command/seed, mid-file corruption)
    aborts the run instead of quietly starting over.
    """
    path = getattr(args, "checkpoint", None)
    if not path:
        if getattr(args, "resume", False):
            out.write("error: --resume requires --checkpoint PATH\n")
            return None, 2
        return None, 0
    from repro.state import Checkpoint, CheckpointError

    # "command" is always "survey"; it stays so that checkpoints
    # written when every command took --checkpoint still match.
    meta = {"command": args.command, "seed": args.seed,
            "fast": bool(args.fast)}
    try:
        if getattr(args, "resume", False):
            checkpoint = Checkpoint.resume(path, meta)
        else:
            checkpoint = Checkpoint.start(path, meta)
    except CheckpointError as exc:
        out.write(f"error: {exc}\n")
        return None, 2
    if checkpoint.resumed:
        note = " (torn tail record truncated)" \
            if checkpoint.truncated_tail else ""
        out.write(f"resuming from checkpoint {path}{note}\n")
    return checkpoint, 0


def main(argv: list[str] | None = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    command = _COMMANDS[args.command]
    checkpoint, status = _open_checkpoint(args, out)
    if status:
        return status
    args._checkpoint = checkpoint
    try:
        metrics_out = getattr(args, "metrics_out", None)
        trace_out = getattr(args, "trace", None)
        timeseries_out = getattr(args, "timeseries_out", None)
        flight_out = getattr(args, "flight_out", None)
        if not (metrics_out or trace_out or timeseries_out or flight_out):
            return command(args, out)

        # Observability requested: run the command under a live registry
        # and tracer (plus the opt-in telemetry plane), export JSON
        # lines, and finish with the summary table.
        from repro.obs import (DEFAULT_FLIGHT_CAPACITY, FlightRecorder,
                               JsonLinesExporter, RotatingJsonlExporter,
                               TimeSeriesSampler, observe, summary_table)

        run_id = _derive_run_id(args)
        timeseries = None
        if timeseries_out:
            # Deterministic samples go to the main rotated segments;
            # wall-clock diagnostics (worker table) to the sidecar.
            timeseries = TimeSeriesSampler(
                RotatingJsonlExporter(timeseries_out, run_id=run_id),
                interval_s=args.timeseries_interval,
                diagnostics_exporter=RotatingJsonlExporter(
                    f"{timeseries_out}.diag", run_id=run_id))
        flight = None
        if flight_out:
            flight = FlightRecorder(
                args.flight_capacity or DEFAULT_FLIGHT_CAPACITY,
                path=flight_out, run_id=run_id)
        restore_usr2 = _install_flight_signal(flight)
        try:
            with observe(run_id=run_id, timeseries=timeseries,
                         flight=flight) as (registry, tracer):
                try:
                    status = command(args, out)
                except BaseException as exc:
                    # The black-box contract: a dying run dumps its
                    # ring, and the time-series exporter is left
                    # unsealed — an honest torn tail, exactly like the
                    # checkpoint journal's.
                    if flight is not None:
                        flight.dump(reason=type(exc).__name__)
                    raise
                if timeseries is not None:
                    timeseries.close()
                if flight is not None:
                    flight.dump(reason="exit")
                if metrics_out:
                    JsonLinesExporter(metrics_out, run_id=run_id).export(
                        registry=registry)
                if trace_out:
                    JsonLinesExporter(trace_out, run_id=run_id).export(
                        tracer=tracer)
                if metrics_out or trace_out:
                    out.write("\n" + summary_table(registry, tracer,
                                                   run_id=run_id) + "\n")
            return status
        finally:
            restore_usr2()
    finally:
        if checkpoint is not None:
            checkpoint.close()


def _install_flight_signal(flight):
    """SIGUSR2 → dump the flight ring without disturbing the run.

    Returns a restore callable.  A no-op off the main thread or on
    platforms without SIGUSR2 — the signal path is a convenience, not
    part of the telemetry contract.
    """
    if flight is None or not hasattr(signal, "SIGUSR2"):
        return lambda: None

    def _on_usr2(signum, _frame) -> None:
        flight.dump(reason="sigusr2")

    try:
        previous = signal.signal(signal.SIGUSR2, _on_usr2)
    except ValueError:        # not the main thread
        return lambda: None
    return lambda: signal.signal(signal.SIGUSR2, previous)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
