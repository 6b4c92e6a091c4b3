"""Benchmark: the shared-nothing parallel survey and the engine hot path.

Two questions, answered in one JSON artifact
(``benchmarks/results/BENCH_parallel_survey.json``):

1. **How well does the survey parallelise?**  The Section 5 crawl is
   embarrassingly parallel per target, and its cost on real hardware is
   the simulated per-target crawl latency (retries and backoff
   sleeps).  We run the same survey at 1/2/4/8 workers, record real
   wall-clock per count, and compute the *simulated makespan* speedup —
   total per-unit latency over the slowest shard of a static
   round-robin deal — which is what a pre-dealt split's wall-clock
   converges to on a machine with that many free cores.  (CI runners and this container often pin us to one or
   two cores, so real wall-clock is recorded but the makespan carries
   the assertion.)

2. **What did the engine hot-path pass buy serially?**  We time the
   survey with the optimisations live, then again with each one
   neutralised — eager pattern compilation through the uncached
   ``compile_pattern``, per-insertion keyword re-extraction, per-probe
   URL re-tokenisation, and a cleared privilege memo — which is the
   code the pass replaced.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_survey.py -s

Set ``BENCH_QUICK=1`` (the CI smoke job does) for a scaled-down run
that still emits the JSON but relaxes the speedup assertions, which
shared CI runners cannot honour reliably.
"""

from __future__ import annotations

import os
import time

from repro.history.generator import generate_history
from repro.measurement.survey import SurveyConfig, run_survey
from repro.parallel.caches import reset_process_caches

from benchmarks.conftest import (BENCH_QUICK, RESULTS_DIR, print_block,
                                 write_result)

_KEY_BITS = 128

#: The Figure 6 workload shape: the top-group crawl dominated by the
#: 30%-fault retry/backoff mix the resilience layer absorbs.
_CONFIG = SurveyConfig(
    top_n=60 if BENCH_QUICK else 600,
    stratum_size=15 if BENCH_QUICK else 150,
    fault_rate=0.3,
    fault_seed=7,
)

_WORKER_COUNTS = (1, 2, 4, 8)

# Quick mode writes its own artifact: its scaled-down workload is a
# different benchmark, and the CI perf gate diffs it against the
# committed quick baseline (BENCH_parallel_survey_quick.json) rather
# than against the full run's numbers.
_RESULT_PATH = os.path.join(
    RESULTS_DIR, "BENCH_parallel_survey_quick.json" if BENCH_QUICK else "BENCH_parallel_survey.json")


def _unit_latencies(result) -> list[float]:
    """Per-unit simulated latencies, in global unit order."""
    latencies = []
    for outcomes in (result.outcomes, result.outcomes_easylist_only):
        for group in outcomes.values():
            latencies.extend(outcome.latency_ms for outcome in group)
    return latencies


def _simulated_speedup(latencies: list[float], workers: int) -> float:
    """Serial latency total over the slowest round-robin shard's total."""
    makespan = max(sum(latencies[i::workers]) for i in range(workers))
    return sum(latencies) / makespan if makespan else float("inf")


def _timed_survey(history, workers: int | None):
    reset_process_caches()
    start = time.perf_counter()
    result = run_survey(history, SurveyConfig(
        top_n=_CONFIG.top_n, stratum_size=_CONFIG.stratum_size,
        fault_rate=_CONFIG.fault_rate, fault_seed=_CONFIG.fault_seed,
        workers=workers))
    return result, time.perf_counter() - start


def measure_parallel(history) -> dict:
    """Wall-clock per worker count plus the simulated makespan model."""
    wall: dict[str, float] = {}
    latencies: list[float] = []
    for workers in _WORKER_COUNTS:
        result, elapsed = _timed_survey(history, workers)
        wall[str(workers)] = round(elapsed, 4)
        if workers == 1:
            latencies = _unit_latencies(result)
    return {
        "targets": _CONFIG.top_n + 3 * _CONFIG.stratum_size,
        "units": len(latencies),
        "wall_clock_s": wall,
        "simulated_latency_total_ms": round(sum(latencies), 3),
        "simulated_speedup": {
            str(workers): round(_simulated_speedup(latencies, workers), 3)
            for workers in _WORKER_COUNTS
        },
    }


def _legacy_engine_emulation():
    """Monkeypatch the hot-path optimisations back out; return an undo.

    Restores three of the code shapes the optimisation passes
    replaced: every pattern compiles its regex eagerly through the
    uncached ``compile_pattern``, keyword candidates are re-extracted
    per ``FilterIndex.add``, and the document-privilege memo never
    retains an entry.  Request matching itself is not emulated: it runs
    through ``CompiledFilterIndex.match_all``, as every engine's does.
    """
    from repro.filters import engine as engine_mod
    from repro.filters import parser as parser_mod
    from repro.filters import pattern as pattern_mod

    saved = (parser_mod.compile_pattern, parser_mod.keyword_candidates,
             engine_mod.AdblockEngine.document_privileges)

    def eager_uncached_compile(source, match_case=False):
        compiled = pattern_mod.compile_pattern.__wrapped__(source, match_case)
        compiled.regex  # force the eager re.compile the old code paid
        return compiled

    privileged = engine_mod.AdblockEngine.document_privileges

    def uncached_privileges(self, *args, **kwargs):
        self._privilege_cache.clear()
        return privileged(self, *args, **kwargs)

    parser_mod.compile_pattern = eager_uncached_compile
    parser_mod.keyword_candidates = pattern_mod.keyword_candidates.__wrapped__
    engine_mod.AdblockEngine.document_privileges = uncached_privileges

    def undo():
        (parser_mod.compile_pattern, parser_mod.keyword_candidates,
         engine_mod.AdblockEngine.document_privileges) = saved

    return undo


def measure_engine(history, repeats: int = 2) -> dict:
    """Serial survey time, optimised vs legacy-emulated engine."""
    def best_of(fn) -> float:
        return min(fn() for _ in range(repeats))

    def optimised() -> float:
        return _timed_survey(history, None)[1]

    _timed_survey(history, None)  # warm site profiles etc. for both modes
    optimised_s = best_of(optimised)
    undo = _legacy_engine_emulation()
    try:
        legacy_s = best_of(optimised)
    finally:
        undo()
    return {
        "optimised_s": round(optimised_s, 4),
        "legacy_s": round(legacy_s, 4),
        "speedup": round(legacy_s / optimised_s, 3) if optimised_s else 0.0,
    }


def test_parallel_survey_benchmark():
    history = generate_history(seed=2015, key_bits=_KEY_BITS)
    parallel = measure_parallel(history)
    engine = measure_engine(history)
    payload = {
        "benchmark": "parallel_survey",
        "quick": BENCH_QUICK,
        "config": {
            "top_n": _CONFIG.top_n,
            "stratum_size": _CONFIG.stratum_size,
            "fault_rate": _CONFIG.fault_rate,
            "fault_seed": _CONFIG.fault_seed,
        },
        "parallel": parallel,
        "engine": engine,
    }
    write_result(_RESULT_PATH, payload)

    sim = parallel["simulated_speedup"]
    print_block(
        f"parallel survey ({parallel['units']} units): wall-clock "
        + ", ".join(f"{w}w={parallel['wall_clock_s'][w]:.2f}s"
                    for w in sorted(parallel['wall_clock_s'], key=int))
        + f"; simulated speedup 2w={sim['2']}x 4w={sim['4']}x "
        f"8w={sim['8']}x\n"
        f"engine hot path: optimised {engine['optimised_s']:.2f}s vs "
        f"legacy {engine['legacy_s']:.2f}s = {engine['speedup']}x\n"
        f"results -> {_RESULT_PATH}")

    assert sim["8"] >= 3.0, (
        f"simulated 8-worker speedup {sim['8']}x below the 3x target")
    if not BENCH_QUICK:
        assert engine["speedup"] >= 1.2, (
            f"engine hot-path speedup {engine['speedup']}x below the "
            f"1.2x target")
