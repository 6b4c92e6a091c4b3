"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

They check the result contract (every declared metric, by name, with
its unit), the layer breakdown identity, and that a planted output
mismatch is reported as a failure instead of passing silently.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--seed", "1", "--size", "small", *args]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done.stderr


def assert_contract(result: dict, declared: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_all_reported(workload):
    status, result, stderr = bench("--workload", workload,
                                   "--seconds", "1", "--trace", "0")
    assert status == 0, stderr
    assert_contract(result, run.END_TO_END)
    assert result["correct"] and result["failed"] == 0, stderr
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_survey_inline_breakdown_adds_up():
    status, result, stderr = bench("--workload", "survey-inline",
                                   "--seconds", "1", "--trace", "1")
    assert status == 0, stderr
    assert_contract(result, run.PER_LAYER)
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    parts = sum(value for name, value in values.items()
                if name.startswith("breakdown."))
    assert parts + values["remainder_s"] == pytest.approx(
        values["trace.wall_s"])
    assert values["trace.overhead_ratio"] > 0
    assert all(value == 0 for name, value in values.items()
               if name.startswith(("parallel.", "state.")))
    assert values["filters.check_request_calls"] > 0
    assert values["web.attempts_per_target"] == 1.0
    for name in ("host.slowdown", "wall_setup_s", "wall_throughput_per_s"):
        assert values[name] > 0, name


def test_survey_steal_traced_reaches_workers():
    status, result, stderr = bench("--workload", "survey-steal",
                                   "--seconds", "1", "--trace", "1")
    assert status == 0, stderr
    assert_contract(result, run.PER_LAYER)
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    for name in ("parallel.crawl_wall_s", "parallel.worker_cpu_s",
                 "parallel.fork_s", "state.journal_append_s",
                 "state.journal_bytes", "web.visit_self_s"):
        assert values[name] > 0, name
    assert values["web.attempts_per_target"] > 1.0
    parts = sum(value for name, value in values.items()
                if name.startswith("breakdown."))
    assert parts + values["remainder_s"] == pytest.approx(
        values["trace.wall_s"])


def test_serve_traced_reports_layers_and_reloads():
    status, result, stderr = bench("--workload", "serve-openloop",
                                   "--seconds", "2", "--trace", "1")
    assert status == 0, stderr
    assert_contract(result, run.PER_LAYER)
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert values["serve.handle_match_ms.p50"] > 0
    assert values["serve.artifact_load_hits"] >= 1
    assert values["filters.check_request_calls"] > 0
    assert values["history.generate_s"] == 0
    assert values["serve.max_rps_at_slo"] >= 15
    assert values["serve.reload_ms"] > 0
    assert values["serve.reload_build_ms"] > 0
    assert values["serve.churn_read_ms.p50"] > 0
    assert values["host.slowdown"] > 0
    assert values["wall_setup_s"] > 0
    parts = sum(value for name, value in values.items()
                if name.startswith("breakdown."))
    assert parts + values["remainder_s"] == pytest.approx(
        values["trace.wall_s"])


def test_planted_digest_mismatch_fails():
    status, result, stderr = bench("--workload", "survey-inline",
                                   "--seconds", "1", "--trace", "0",
                                   "--plant", "digest")
    assert status == 0, stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "digest" in stderr


def test_planted_parity_mismatch_fails():
    status, result, stderr = bench("--workload", "serve-openloop",
                                   "--seconds", "2", "--trace", "0",
                                   "--plant", "parity")
    assert status == 0, stderr
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "differs from serve_match" in stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    status, result, _stderr = bench("--workload", "survey-inline",
                                    "--seconds", "1", "--trace", "0",
                                    cwd=str(tmp_path))
    assert status != 0
    assert result is None


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == metrics
