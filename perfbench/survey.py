"""The two survey workloads: ``survey-steal`` and ``survey-inline``.

Both crawl the Section 5 samples in the two engine configurations with
:func:`repro.measurement.survey.run_survey` and then compute the Table 4,
Section 5.1 and Figure 6-8 statistics.  ``survey-steal`` forks
``nproc`` workers under the work-stealing scheduler with injected faults
and a checkpoint; ``survey-inline`` runs the default serial loop with no
faults and no checkpoint.

The output check is a SHA-256 over every journaled outcome row of both
configurations plus the Table 4 and Section 5.1 rows, compared with the
digest pinned in ``pins.json`` (one per fault seed on ``survey-steal``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time

import hostref
from tracer import SpanRecorder, percentile, self_times

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

#: The history every pass surveys: the study's own seed.
STUDY_SEED = 2015
#: ``survey-steal``: the workload seed picks one of this many pinned
#: fault seeds.
VARIANTS = 10

#: (top_n, stratum_size) per size; "full" is the benchmarked size.
SIZES = {"full": (300, 75), "small": (60, 15)}

SETUP_REPEATS = 3
#: A run makes whole passes until ``--seconds`` have gone by, and at
#: least this many, and reports their median.
MIN_PASSES = 3

#: Span name -> breakdown layer, for spans recorded by the benchmark.
SURVEY_SPANS = {
    "history.generate": "history",
    "measurement.build_samples": "measurement",
    "measurement.build_engines": "measurement",
    "measurement.stats": "measurement",
    "filters.parse": "filters",
    "filters.freeze": "filters",
    "filters.check_request": "filters",
    "filters.hidden_elements": "filters",
    "web.build_page": "web",
    "web.visit": "web",
    "parallel.crawl": "parallel",
    "parallel.fork": "parallel",
    "parallel.dispatch_wait": "parallel",
    "state.journal_append": "state",
    "state.journal_sync": "state",
}


@dataclasses.dataclass
class SurveyPlan:
    workload: str
    variant: int
    size: str
    seconds: float
    workers: int | None
    fault_rate: float
    checkpointed: bool

    @property
    def pin_key(self) -> str:
        return f"{self.workload}/{self.size}/{self.variant}"


def plan(workload: str, seed: int, seconds: float, size: str) -> SurveyPlan:
    steal = workload == "survey-steal"
    return SurveyPlan(workload=workload,
                      variant=seed % VARIANTS if steal else 0,
                      size=size, seconds=seconds,
                      workers=(os.cpu_count() or 2) if steal else None,
                      fault_rate=0.3 if steal else 0.0,
                      checkpointed=steal)


# -- the program's calls ---------------------------------------------------

def _survey_config(p: SurveyPlan):
    from repro.measurement.survey import SurveyConfig

    top_n, stratum = SIZES[p.size]
    if p.workers is None:
        return SurveyConfig(top_n=top_n, stratum_size=stratum)
    return SurveyConfig(top_n=top_n, stratum_size=stratum,
                        fault_rate=p.fault_rate, fault_seed=p.variant,
                        workers=p.workers, scheduler="steal")


def compute_stats(result) -> dict:
    """Table 4, Section 5.1 and Figures 6-8, as the survey command does."""
    from repro.measurement import stats

    top5k = result.top5k
    return {
        "table4": stats.table4_top_filters(top5k, top=20),
        "section51": stats.section51_headline(top5k),
        "figure6": stats.figure6_site_matches(result),
        "figure7": stats.figure7_ecdf(top5k),
        "figure8": stats.figure8_group_matrix(result),
    }


def output_digest(result, computed: dict) -> str:
    """SHA-256 over both configurations' outcome rows + Table 4 + §5.1."""
    from repro.web.crawlstate import snapshot_outcome

    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(json.dumps(value, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")

    for by_group in (result.outcomes, result.outcomes_easylist_only):
        for group in result.groups:
            for outcome in by_group.get(group.name, []):
                feed(snapshot_outcome(outcome))
    for row in computed["table4"]:
        feed(dataclasses.asdict(row))
    feed(dataclasses.asdict(computed["section51"]))
    return digest.hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- one pass --------------------------------------------------------------

class _Pass:
    """One timed ``run_survey`` + statistics, with its checks after it."""

    def __init__(self, p: SurveyPlan, history, workdir: str,
                 recorder: SpanRecorder | None) -> None:
        self.p = p
        self.history = history
        self.workdir = workdir
        self.recorder = recorder

    def run(self) -> dict:
        from repro.parallel.caches import reset_process_caches
        from repro.measurement.survey import run_survey
        from repro.state.checkpoint import Checkpoint

        reset_process_caches()
        checkpoint = None
        if self.p.checkpointed:
            checkpoint = Checkpoint.start(
                os.path.join(self.workdir, "survey.ckpt"),
                {"benchmark": self.p.workload})
        cpu0 = os.times()
        start = time.perf_counter()
        try:
            result = run_survey(self.history, _survey_config(self.p),
                                checkpoint=checkpoint)
            computed = self._stats(result)
            wall = time.perf_counter() - start
            cpu1 = os.times()
        finally:
            if checkpoint is not None:
                checkpoint.close()
        cpu = ((cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
               + (cpu1.children_user - cpu0.children_user)
               + (cpu1.children_system - cpu0.children_system))
        units = sum(len(v) for v in result.outcomes.values()) + sum(
            len(v) for v in result.outcomes_easylist_only.values())
        return {"wall_s": wall, "cpu_s": cpu, "units": units,
                "result": result,
                "digest": output_digest(result, computed)}

    def _stats(self, result) -> dict:
        if self.recorder is None:
            return compute_stats(result)
        return self.recorder.wrap(compute_stats, "measurement.stats")(result)


def _generate_history():
    from repro.history.generator import generate_history
    from repro.parallel.caches import reset_process_caches

    reset_process_caches()
    return generate_history(seed=STUDY_SEED, key_bits=512)


def _setup(repeats: int, chunks: list[float]) -> tuple[object, list[float]]:
    """Generate the history ``repeats`` times; reference chunks
    follow each, outside the timed part."""
    times = []
    history = None
    for _ in range(repeats):
        start = time.perf_counter()
        history = _generate_history()
        times.append(time.perf_counter() - start)
        hostref.sample(chunks)
    return history, times


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _install_visit_timer(recorder: SpanRecorder, child_dir: str) -> None:
    """The one wrapper untraced runs carry: per-page visit latency."""
    from repro.state.journal import RunJournal
    from repro.web.browser import InstrumentedBrowser

    recorder.install(InstrumentedBrowser, "visit", "web.visit")
    _install_child_flush(recorder, RunJournal, child_dir)


def _install_child_flush(recorder: SpanRecorder, journal_cls,
                         child_dir: str) -> None:
    """Forked workers leave through ``os._exit`` right after closing
    their shard journal, so their spans are written from that close."""

    def after_close(_result, journal) -> None:
        recorder.counters["state.journal_bytes"] = (
            recorder.counters.get("state.journal_bytes", 0)
            + os.path.getsize(journal.path))
        if os.getpid() != recorder.root_pid:
            recorder.flush_child(child_dir)

    recorder.hook(journal_cls, "close", after_close)


def _child_records(child_dir: str) -> list[dict]:
    records = []
    for name in sorted(os.listdir(child_dir)):
        if name.startswith("child-"):
            with open(os.path.join(child_dir, name), encoding="utf-8") as f:
                records.append(json.load(f))
    return records


# -- the workload ----------------------------------------------------------

def run(p: SurveyPlan, *, trace: bool, workdir: str,
        expected_digest: str | None) -> dict:
    """Run the workload; returns the benchmark's result object."""
    if expected_digest is None:
        expected_digest = load_pins().get(p.pin_key)
    if p.workers is None:
        # The serial survey runs on one core; the reference chunks are
        # timed on the same one (see hostref.py).
        hostref.pin_one_cpu()
    chunks: list[float] = []
    history, setup_times = _setup(SETUP_REPEATS, chunks)
    measured = _measure(p, history, workdir, expected_digest, chunks)
    wall_setup = statistics.median(setup_times)
    untraced_wall = wall_setup + statistics.median(measured["wall_s"])
    wall_throughput = statistics.median(
        units / wall for units, wall
        in zip(measured["units"], measured["wall_s"]))
    slowdown = hostref.slowdown(chunks)
    metrics = {
        # Both on the reference host: the host's drift over minutes is
        # taken out (see hostref.py).
        "setup_s": (wall_setup / slowdown, "s"),
        "throughput_per_s": (wall_throughput * slowdown, "1/s"),
        "wall_setup_s": (wall_setup, "s"),
        "wall_throughput_per_s": (wall_throughput, "1/s"),
        "host.slowdown": (slowdown, "ratio"),
        "latency_p50_ms": (percentile(measured["visits_ms"], 50), "ms"),
        "latency_p90_ms": (percentile(measured["visits_ms"], 90), "ms"),
        "cpu_ms_per_op": (statistics.median(
            1000.0 * cpu / units for units, cpu
            in zip(measured["units"], measured["cpu_s"])), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    if not trace:
        return _result(measured, metrics)
    traced = _traced_pass(p, workdir, expected_digest, untraced_wall)
    measured["attempted"] += traced["attempted"]
    measured["failed"] += traced["failed"]
    measured["problems"] += traced["problems"]
    traced["metrics"]["failed_ratio"] = (measured["failed"]
                                         / measured["attempted"])
    return _result(measured, {**metrics, **traced["metrics"]})


def _result(measured: dict, metrics: dict) -> dict:
    return {"attempted": measured["attempted"], "failed": measured["failed"],
            "problems": measured["problems"], "metrics": metrics}


def _check(p: SurveyPlan, digest: str, expected: str | None,
           problems: list[str]) -> int:
    if expected is None:
        problems.append(f"no pinned digest for {p.pin_key}")
        return 1
    if digest != expected:
        problems.append(f"{p.pin_key}: output digest {digest[:16]}… "
                        f"!= pinned {expected[:16]}…")
        return 1
    return 0


def _measure(p: SurveyPlan, history, workdir: str, expected: str | None,
             chunks: list[float]) -> dict:
    """Whole passes until ``p.seconds`` have gone by, at least
    ``MIN_PASSES``; wall, CPU and units are kept per pass.  Reference
    chunks go before the first pass and after each, untimed."""
    recorder = SpanRecorder()
    child_dir = tempfile.mkdtemp(prefix="children-", dir=workdir)
    _install_visit_timer(recorder, child_dir)
    totals = {"wall_s": [], "cpu_s": [], "units": [], "attempted": 0,
              "failed": 0, "problems": [], "visits_ms": []}
    hostref.sample(chunks)
    start = time.perf_counter()
    try:
        while (time.perf_counter() - start < p.seconds
               or totals["attempted"] < MIN_PASSES):
            pass_dir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
            try:
                done = _Pass(p, history, pass_dir, None).run()
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
            for key in ("wall_s", "cpu_s", "units"):
                totals[key].append(done[key])
            totals["attempted"] += 1
            totals["failed"] += _check(p, done["digest"], expected,
                                       totals["problems"])
            del done  # one pass's results in memory at a time
            hostref.sample(chunks)
    finally:
        recorder.uninstall()
    spans = list(recorder.spans)
    for child in _child_records(child_dir):
        spans.extend(child["spans"])
    shutil.rmtree(child_dir, ignore_errors=True)
    totals["visits_ms"] = [1000.0 * (s[2] - s[1]) for s in spans
                           if s[0] == "web.visit"]
    return totals


# -- the traced pass -------------------------------------------------------

def _idle_sampling_registry():
    """An ``OBS.diagnostics`` registry that also keeps every
    ``parallel.steal.worker_idle`` sample, not only the last value."""
    from repro.obs import MetricsRegistry

    class IdleSamplingRegistry(MetricsRegistry):
        def __init__(self) -> None:
            super().__init__()
            self.idle_samples: list[float] = []

        def gauge(self, name, **labels):
            gauge = super().gauge(name, **labels)
            if name != "parallel.steal.worker_idle":
                return gauge
            samples = self.idle_samples

            class Sampled:
                def set(self, value) -> None:
                    samples.append(value)
                    gauge.set(value)

            return Sampled()

    return IdleSamplingRegistry()


def _install_layers(recorder: SpanRecorder, child_dir: str) -> None:
    import multiprocessing.connection as mp_connection

    import repro.filters.filterlist as filterlist
    import repro.measurement.survey as survey
    import repro.web.browser as browser
    from repro.filters.engine import AdblockEngine
    from repro.parallel.supervisor import Supervisor
    from repro.state.journal import RunJournal

    recorder.install(survey, "build_samples", "measurement.build_samples")
    recorder.install(survey, "build_engines", "measurement.build_engines")
    recorder.install(survey, "run_stealing_survey", "parallel.crawl")
    recorder.install(filterlist, "parse_filter_list", "filters.parse")
    recorder.install(AdblockEngine, "freeze", "filters.freeze")
    recorder.install(AdblockEngine, "check_request", "filters.check_request")
    recorder.install(AdblockEngine, "hidden_elements",
                     "filters.hidden_elements")
    recorder.install(browser, "build_page", "web.build_page")
    recorder.install(browser.InstrumentedBrowser, "visit", "web.visit")
    recorder.install(Supervisor, "spawn_initial", "parallel.fork")
    recorder.install(Supervisor, "respawn", "parallel.fork")
    recorder.install(mp_connection, "wait", "parallel.dispatch_wait")
    recorder.install(RunJournal, "append", "state.journal_append")
    recorder.install(RunJournal, "sync", "state.journal_sync")
    _install_child_flush(recorder, RunJournal, child_dir)


def _traced_pass(p: SurveyPlan, workdir: str, expected: str | None,
                 untraced_wall: float) -> dict:
    from repro.obs import MetricsRegistry, Tracer, observe

    recorder = SpanRecorder()
    child_dir = tempfile.mkdtemp(prefix="traced-children-", dir=workdir)
    pass_dir = tempfile.mkdtemp(prefix="traced-pass-", dir=workdir)
    _install_layers(recorder, child_dir)
    registry = MetricsRegistry()
    diagnostics = _idle_sampling_registry()
    problems: list[str] = []
    try:
        with observe(registry=registry, tracer=Tracer(),
                     diagnostics=diagnostics):
            start = time.perf_counter()
            history = recorder.wrap(_generate_history,
                                    "history.generate")()
            done = _Pass(p, history, pass_dir, recorder).run()
            wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)
    failed = _check(p, done["digest"], expected, problems)
    children = _child_records(child_dir)
    shutil.rmtree(child_dir, ignore_errors=True)
    metrics = survey_layer_metrics(
        recorder, children, registry, diagnostics, done, wall,
        untraced_wall, workers=p.workers or 0)
    return {"attempted": 1, "failed": failed, "problems": problems,
            "metrics": metrics}


def survey_layer_metrics(recorder, children, registry, diagnostics, done,
                         wall, untraced_wall, *, workers) -> dict:
    root = recorder.spans
    root_self = self_times(root)
    everywhere: dict[str, float] = {}     # self time, all processes
    count: dict[str, int] = {}
    duration: dict[str, float] = {}       # root-process wall time
    breakdown = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(root, root_self):
        everywhere[span[0]] = everywhere.get(span[0], 0.0) + own
        duration[span[0]] = duration.get(span[0], 0.0) + span[2] - span[1]
        count[span[0]] = count.get(span[0], 0) + 1
        breakdown[SURVEY_SPANS[span[0]]] += own
    worker_cpu = 0.0
    journal_bytes = recorder.counters.get("state.journal_bytes", 0)
    for child in children:
        worker_cpu += child["cpu_s"]
        journal_bytes += child.get("counters", {}).get(
            "state.journal_bytes", 0)
        for span, own in zip(child["spans"], self_times(child["spans"])):
            everywhere[span[0]] = everywhere.get(span[0], 0.0) + own
            count[span[0]] = count.get(span[0], 0) + 1

    counters = _counters(registry)
    totals: dict[str, float] = {}
    for name, _labels, value in counters:
        totals[name] = totals.get(name, 0) + value
    probes = totals.get("filters.index.probes", 0)
    candidates = totals.get("filters.index.candidates_yielded", 0)
    fallback = totals.get("filters.index.fallback_scanned", 0)
    matched = sum(value for name, labels, value in counters
                  if name == "filters.engine.verdicts"
                  and labels.get("via") == "match"
                  and labels.get("verdict") != "no_match")
    result = done["result"]
    outcomes = result.all_outcomes()
    crawl_wall = duration.get("parallel.crawl", 0.0)
    idle = diagnostics.idle_samples
    lag = diagnostics.gauge("parallel.steal.max_heartbeat_lag_ms").value

    def s(name: str) -> float:
        return everywhere.get(name, 0.0)

    metrics = {
        "history.generate_s": s("history.generate"),
        "measurement.build_samples_s": s("measurement.build_samples"),
        "measurement.build_engines_s": s("measurement.build_engines"),
        "measurement.stats_s": s("measurement.stats"),
        "filters.parse_s": s("filters.parse"),
        "filters.freeze_s": s("filters.freeze"),
        "filters.check_request_calls": count.get("filters.check_request", 0),
        "filters.check_request_s": s("filters.check_request"),
        "filters.hidden_elements_s": s("filters.hidden_elements"),
        "filters.candidates_per_probe": candidates / probes if probes else 0,
        "filters.fallback_share": fallback / candidates if candidates else 0,
        "filters.match_yield": matched / candidates if candidates else 0,
        "web.build_page_s": s("web.build_page"),
        "web.visit_self_s": s("web.visit"),
        "web.attempts_per_target": (sum(o.attempts for o in outcomes)
                                    / len(outcomes)),
        "web.failed_targets": sum(1 for o in outcomes if o.record is None),
        "parallel.crawl_wall_s": crawl_wall,
        "parallel.worker_cpu_s": worker_cpu,
        "parallel.efficiency": (worker_cpu / (workers * crawl_wall)
                                if workers and crawl_wall else 0),
        "parallel.fork_s": s("parallel.fork"),
        "parallel.dispatch_wait_s": s("parallel.dispatch_wait"),
        "parallel.worker_idle": sum(idle) / len(idle) if idle else 0,
        "parallel.max_heartbeat_lag_ms": lag or 0,
        "state.journal_append_s": s("state.journal_append"),
        "state.journal_sync_s": s("state.journal_sync"),
        "state.journal_bytes": journal_bytes,
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / untraced_wall,
        "remainder_s": wall - sum(breakdown.values()),
    }
    for layer in LAYERS:
        metrics[f"breakdown.{layer}_s"] = breakdown[layer]
    return metrics


#: The breakdown layers, shared with the serve workloads.
LAYERS = ("history", "measurement", "filters", "web", "parallel", "state",
          "serve", "queue")


def _counters(registry) -> list[tuple[str, dict, float]]:
    """Every counter as ``(name, labels, value)``."""
    from repro.obs import Counter

    return [(metric.name, dict(metric.labels), metric.value)
            for metric in registry.samples() if isinstance(metric, Counter)]
