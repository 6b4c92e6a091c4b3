"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed.  ``--trace 1`` repeats that measurement, then runs the
workload once more with a span wrapper around every layer's public entry
point and reports the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback

from survey import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("survey-steal", "survey-inline", "serve-openloop")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_STAGES = ("handle_match", "admission_wait", "parse", "match", "encode",
           "wire")

PER_LAYER = {
    # Measured with tracing off, like the end-to-end metrics, but left
    # ungated: on a shared 2-core host their run-to-run spread reaches
    # the largest regression bound a metric may have.
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    # Set-up time and survey throughput before the host's drift is
    # taken out, and how much slower than the reference host it ran.
    "wall_setup_s": "s",
    "wall_throughput_per_s": "1/s",
    "host.slowdown": "ratio",
    "history.generate_s": "s",
    "measurement.build_samples_s": "s",
    "measurement.build_engines_s": "s",
    "measurement.stats_s": "s",
    "filters.parse_s": "s",
    "filters.freeze_s": "s",
    "filters.check_request_calls": "count",
    "filters.check_request_s": "s",
    "filters.hidden_elements_s": "s",
    "filters.candidates_per_probe": "ratio",
    "filters.fallback_share": "ratio",
    "filters.match_yield": "ratio",
    "web.build_page_s": "s",
    "web.visit_self_s": "s",
    "web.attempts_per_target": "ratio",
    "web.failed_targets": "count",
    "parallel.crawl_wall_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.fork_s": "s",
    "parallel.dispatch_wait_s": "s",
    "parallel.worker_idle": "ratio",
    "parallel.max_heartbeat_lag_ms": "ms",
    "state.journal_append_s": "s",
    "state.journal_sync_s": "s",
    "state.journal_bytes": "bytes",
    **{f"serve.{stage}_ms.{q}": "ms" for stage in _STAGES
       for q in ("p50", "p95")},
    "serve.shed_ratio": "ratio",
    "serve.generator_late_ms": "ms",
    "serve.max_rps_at_slo": "1/s",
    "serve.reload_ms": "ms",
    "serve.churn_read_ms.p50": "ms",
    "serve.churn_read_ms.p90": "ms",
    "serve.reload_build_ms": "ms",
    "serve.reload_persist_ms": "ms",
    "serve.artifact_load_hits": "count",
    "failed_ratio": "ratio",
    **{f"breakdown.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "remainder_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Smoke tests only: tiny inputs, and planted output mismatches.
    parser.add_argument("--size", default="full", choices=("full", "small"))
    parser.add_argument("--plant", default="none",
                        choices=("none", "digest", "parity"))
    return parser.parse_args(argv)


def run_workload(args, workdir: str) -> dict:
    if args.workload.startswith("survey-"):
        import survey

        expected = "0" * 64 if args.plant == "digest" else None
        return survey.run(
            survey.plan(args.workload, args.seed, args.seconds, args.size),
            trace=bool(args.trace), workdir=workdir,
            expected_digest=expected)
    import serve

    workload = serve.ServeWorkload(args.seed, args.seconds, args.size,
                                   ROOT, workdir)
    return workload.run(bool(args.trace),
                        plant_mismatch=args.plant == "parity")


def report(args, outcome: dict) -> dict:
    """The result object, with every declared metric and its unit."""
    declared = PER_LAYER if args.trace else END_TO_END
    values = outcome["metrics"]
    unknown = sorted(set(values) - set(END_TO_END) - set(PER_LAYER))
    if unknown:
        raise RuntimeError(f"undeclared metrics {unknown}")
    metrics = {}
    for name, unit in declared.items():
        value = values.get(name, 0)
        if isinstance(value, tuple):
            value, unit = value
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": not outcome["problems"],
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": metrics}


#: Every benchmark process hashes strings with this seed.  Set and dict
#: layout follows the hash seed, and it alone moves survey throughput by
#: about 15% from one fresh process to the next; pinning it keeps that
#: out of the run-to-run spread.
HASH_SEED = "0"


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    # Anything the program or its children put in a temp dir stays here.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        outcome = run_workload(args, workdir)
        result = report(args, outcome)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    # Everything this run measured, whichever set the result reports.
    measured = {name: value[0] if isinstance(value, tuple) else value
                for name, value in outcome["metrics"].items()}
    print(f"measured: {json.dumps(measured)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
