"""Micro-benchmark: the observability layer must be close to free.

Three bounds, all on the Figure 6/7 pipeline (``run_survey`` plus the
figure/table statistics):

* **enabled < 10%** — measured directly: the pipeline under a live
  registry + tracer vs the pipeline with observability off;
* **telemetry < 5% on top of enabled** — the PR-10 plane (time-series
  sampler streaming rotated JSONL segments + flight recorder ring)
  measured against the metrics/trace-only enabled run;
* **disabled ≈ 0** — the disabled cost is one attribute check per
  instrumentation site (``OBS.enabled``, ``OBS.timeseries.enabled``,
  ``OBS.flight.enabled``), which is far below timer noise for a
  pipeline of seconds.  We bound it by *projection*: time the guard
  checks in a tight loop, count the checks one disabled pipeline run
  makes (every read of an ``OBS`` attribute, see
  :func:`_guard_check_count`), and divide by the disabled pipeline
  time.  The count is of checks executed, not of what the enabled
  run records: one guarded ``inc(600)`` is one check.

A further assertion checks the other half of the contract: enabled and
disabled runs produce *identical* analysis results (docs/OBSERVABILITY.md).

The deterministic section of the emitted artifact
(``benchmarks/results/BENCH_obs_overhead_quick.json`` under
``BENCH_QUICK=1``) — guard
check count and simulated-clock sample count, pure functions of the
workload
— is diffed against the committed baseline by the CI perf gate.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from benchmarks.conftest import (BENCH_QUICK, RESULTS_DIR, print_block,
                                 write_result)
from repro.history.generator import generate_history
from repro.measurement.stats import (
    figure6_site_matches,
    figure7_ecdf,
    table4_top_filters,
)
from repro.measurement.survey import SurveyConfig, run_survey
from repro.obs import (
    OBS,
    FlightRecorder,
    ObsState,
    RotatingJsonlExporter,
    TimeSeriesSampler,
    observe,
)

#: Scaled Figure 6/7 pipeline: big enough that per-visit and per-match
#: work dominates, small enough to repeat a few times.
_CONFIG = (SurveyConfig(top_n=60, stratum_size=15) if BENCH_QUICK
           else SurveyConfig(top_n=200, stratum_size=40))

#: The telemetry stage's workload adds fault injection: without it no
#: retry backoff accrues, the simulated clock never advances, no ticks
#: cross, and the telemetry bound would be measured against an idle
#: sampler.  The enabled/disabled bounds keep the fault-free pipeline.
_TELEMETRY_CONFIG = (
    SurveyConfig(top_n=60, stratum_size=15,
                 fault_rate=0.3, fault_seed=7) if BENCH_QUICK
    else SurveyConfig(top_n=200, stratum_size=40,
                      fault_rate=0.3, fault_seed=7))

_RESULT_PATH = os.path.join(
    RESULTS_DIR, "BENCH_obs_overhead_quick.json" if BENCH_QUICK else "BENCH_obs_overhead.json")

_HISTORY = None


def get_history():
    """The 989-revision history, built once outside all timings."""
    global _HISTORY
    if _HISTORY is None:
        _HISTORY = generate_history(seed=2015, key_bits=128)
    return _HISTORY


def pipeline(config: SurveyConfig = _CONFIG):
    """run_survey -> Figure 6 / Figure 7 / Table 4, returning results."""
    result = run_survey(get_history(), config)
    return {
        "figure6": figure6_site_matches(result),
        "figure7": figure7_ecdf(result.top5k),
        "table4": table4_top_filters(result.top5k, top=10),
    }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _guard_check_cost(iterations: int = 2_000_000) -> float:
    """Seconds per disabled-guard check, measured in a tight loop.

    Each iteration evaluates all three guard flavours an
    instrumentation site may hit — the registry flag, the null
    sampler's flag, and the null flight recorder's flag — and the cost
    is averaged per check.
    """
    obs = OBS
    counted = 0
    start = time.perf_counter()
    for _ in range(iterations):
        if obs.enabled:
            counted += 1  # pragma: no cover - observability is off here
        if obs.timeseries.enabled:
            counted += 1  # pragma: no cover
        if obs.flight.enabled:
            counted += 1  # pragma: no cover
    elapsed = time.perf_counter() - start
    assert counted == 0
    # Subtract the cost of the bare loop itself so we charge only the
    # attribute checks.
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    bare = time.perf_counter() - start
    return max(elapsed - bare, elapsed / 10) / (iterations * 3)


class _CountingObsState(ObsState):
    """``ObsState`` that counts every attribute read made on it."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name: str):
        _CountingObsState.reads += 1
        return object.__getattribute__(self, name)


def _guard_check_count() -> int:
    """Guard checks one disabled pipeline run executes.

    Every instrumentation site starts with one read of an ``OBS``
    attribute: a guard (``OBS.enabled``, ``OBS.timeseries.enabled``)
    or the null object it calls through (``OBS.tracer``).  For one run
    ``OBS`` is switched to a subclass that counts those reads, so the
    count is of checks the disabled pipeline really makes.
    """
    assert not OBS.enabled
    _CountingObsState.reads = 0
    OBS.__class__ = _CountingObsState
    try:
        pipeline()
    finally:
        OBS.__class__ = ObsState
    return _CountingObsState.reads


def _telemetry_run(directory: str) -> tuple[float, int, int]:
    """One faulted pipeline run with the full telemetry plane live.

    Returns ``(seconds, timeseries_samples, flight_events)``.  The
    sampler streams real rotated segments to disk — the cost being
    bounded is the production configuration, not an in-memory stand-in.
    """
    sampler = TimeSeriesSampler(
        RotatingJsonlExporter(os.path.join(directory, "ts.jsonl"),
                              run_id="bench"))
    flight = FlightRecorder(
        path=os.path.join(directory, "flight.jsonl"), run_id="bench")
    with observe(timeseries=sampler, flight=flight):
        start = time.perf_counter()
        pipeline(_TELEMETRY_CONFIG)
        elapsed = time.perf_counter() - start
        # The final seal + flight dump are once-per-run teardown
        # (fsync-bound), not hot-path cost — they run outside the
        # stopwatch but still inside the run, so the artifacts stay
        # complete and verifiable.
        samples = sampler.samples_emitted
        events = len(flight.events()) + flight.dropped
        sampler.close()
        flight.dump(reason="exit")
    return elapsed, samples, events


def _telemetry_stage(repeats: int) -> tuple[float, float, float, int, int]:
    """Interleaved baseline-vs-telemetry timing on the faulted workload.

    Returns ``(baseline_s, telemetry_s, ratio, samples,
    flight_events)``.  The two configurations alternate within each
    round so machine-state drift (cache pressure, CPU frequency) lands
    on both sides instead of biasing whichever block ran second, and
    the asserted ratio is the best *per-round pair* rather than a
    quotient of independent minima.
    """
    baseline, telemetry = float("inf"), float("inf")
    ratio = float("inf")
    samples, events = 0, 0
    for _ in range(repeats):
        start = time.perf_counter()
        with observe():
            pipeline(_TELEMETRY_CONFIG)
        round_baseline = time.perf_counter() - start
        with tempfile.TemporaryDirectory() as directory:
            elapsed, samples, events = _telemetry_run(directory)
        baseline = min(baseline, round_baseline)
        telemetry = min(telemetry, elapsed)
        # Pair within the round: best-of on each side independently
        # still fails when a slow stretch covers every round of one
        # side, but back-to-back runs share machine state.
        ratio = min(ratio, elapsed / round_baseline)
    return baseline, telemetry, ratio, samples, events


def run_benchmark(repeats: int = 3) -> dict:
    get_history()
    pipeline()  # warm imports and caches before timing

    def observed_pipeline():
        with observe():
            pipeline()

    # Interleave disabled/enabled rounds and take the best *per-round
    # pair*: sequential blocks let machine-state drift bias whichever
    # block runs second, and even interleaved best-of fails when a
    # slow stretch covers every round of one side.  Back-to-back runs
    # inside a round share machine state, so their quotient is the
    # honest overhead estimate.
    disabled, enabled = float("inf"), float("inf")
    enabled_ratio = float("inf")
    for _ in range(repeats):
        round_disabled = _best_of(pipeline, 1)
        round_enabled = _best_of(observed_pipeline, 1)
        disabled = min(disabled, round_disabled)
        enabled = min(enabled, round_enabled)
        enabled_ratio = min(enabled_ratio, round_enabled / round_disabled)
    # The telemetry bound (5%) is tighter than the enabled bound
    # (10%), so its stage takes more rounds to push best-of noise
    # below the margin being asserted.
    _baseline, telemetry, telemetry_ratio, samples, flight_events = \
        _telemetry_stage(repeats * 2)
    checks = _guard_check_count()
    guard_cost = _guard_check_cost()
    projected_disabled = guard_cost * checks / disabled
    return {
        "disabled_s": disabled,
        "enabled_s": enabled,
        "enabled_ratio": enabled_ratio,
        "telemetry_s": telemetry,
        "telemetry_ratio": telemetry_ratio,
        "timeseries_samples": samples,
        "flight_events": flight_events,
        "guard_checks": checks,
        "guard_ns": guard_cost * 1e9,
        "projected_disabled_overhead": projected_disabled,
    }


def test_obs_overhead_bounds():
    # Best-of-5: the quick pipeline runs ~2s and shared-runner timer
    # noise is several percent, which a 5% bound cannot absorb at
    # best-of-3.
    result = run_benchmark(repeats=5)
    payload = {
        "benchmark": "obs_overhead",
        "quick": BENCH_QUICK,
        "config": {
            "top_n": _CONFIG.top_n,
            "stratum_size": _CONFIG.stratum_size,
        },
        "overhead": {
            "enabled_ratio": round(result["enabled_ratio"], 4),
            "telemetry_ratio": round(result["telemetry_ratio"], 4),
            "guard_ns": round(result["guard_ns"], 2),
            "projected_disabled_overhead": round(
                result["projected_disabled_overhead"], 6),
        },
        # Pure functions of the workload — the CI perf gate diffs
        # these against the committed baseline with zero tolerance.
        "determinism": {
            "guard_checks": result["guard_checks"],
            "timeseries_samples": result["timeseries_samples"],
            "flight_events": result["flight_events"],
        },
    }
    write_result(_RESULT_PATH, payload)

    print_block(
        f"disabled: {result['disabled_s'] * 1e3:.0f} ms, "
        f"enabled: {result['enabled_s'] * 1e3:.0f} ms "
        f"(ratio {result['enabled_ratio']:.3f}x), "
        f"telemetry+flight: {result['telemetry_s'] * 1e3:.0f} ms "
        f"(ratio {result['telemetry_ratio']:.3f}x over enabled, "
        f"{result['timeseries_samples']} samples, "
        f"{result['flight_events']} flight events); "
        f"{result['guard_checks']:,} guard checks, "
        f"guard check {result['guard_ns']:.1f} ns, "
        f"projected disabled overhead "
        f"{result['projected_disabled_overhead']:.2%}\n"
        f"results -> {_RESULT_PATH}")
    assert result["enabled_ratio"] < 1.10, (
        f"enabled observability costs {result['enabled_ratio']:.3f}x "
        "(bound: 1.10x)")
    assert result["telemetry_ratio"] < 1.05, (
        f"telemetry plane costs {result['telemetry_ratio']:.3f}x over "
        "the enabled baseline (bound: 1.05x)")
    assert result["projected_disabled_overhead"] < 0.03, (
        f"disabled guards project to "
        f"{result['projected_disabled_overhead']:.2%} (bound: 3%)")


def test_results_identical_with_and_without_observability():
    plain = pipeline()
    with observe():
        observed = pipeline()
    assert plain == observed
