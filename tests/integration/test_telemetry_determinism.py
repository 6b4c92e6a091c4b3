"""Telemetry must never perturb results, and must itself be deterministic.

Two contracts from the telemetry plane's acceptance criteria:

* the simulated-clock time-series export is **byte-identical at any
  worker count and lease size** (tick boundaries are a pure function of
  the workload, accumulated in global unit order);
* turning telemetry on changes *nothing* about the survey's own
  artifacts — the ``--metrics-out`` export is byte-identical with and
  without ``--timeseries-out``/``--flight-out`` riding along.

Plus the flight recorder's post-mortem story: a deterministic
kill schedule must be reconstructable from the dumped event ring.
"""

import io
import random

import pytest

from repro.cli import main
from repro.measurement.survey import (build_engines, build_samples,
                                      make_profile_factory)
from repro.obs import FlightRecorder, observe
from repro.obs.analyze import load_flight
from repro.obs.export import list_segments
from repro.parallel.scheduler import StealStats, run_stealing_survey
from repro.parallel.supervisor import WorkerCrashInjector
from repro.web.crawler import Crawler
from repro.web.faults import FaultInjector, FaultPlan
from repro.web.resilience import RetryPolicy

ARGS = ("survey", "--top", "20", "--stratum", "5", "--fast",
        "--fault-rate", "0.3", "--fault-seed", "7")


def run_cli(*argv: str, expect: int = 0) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == expect, out.getvalue()
    return out.getvalue()


def stream_bytes(path: str) -> bytes:
    segments = list_segments(path)
    assert segments, f"no segments written for {path}"
    return b"".join(open(segment, "rb").read() for segment in segments)


def survey_with_telemetry(tmp, tag: str, *extra: str) -> tuple[bytes, bytes]:
    """Run the CLI survey with telemetry; returns (timeseries, metrics)
    bytes."""
    ts = str(tmp / f"{tag}.ts.jsonl")
    metrics = str(tmp / f"{tag}.m.jsonl")
    run_cli(*ARGS, *extra, "--timeseries-out", ts,
            "--metrics-out", metrics)
    return stream_bytes(ts), open(metrics, "rb").read()


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("telemetry")


@pytest.fixture(scope="module")
def baseline(tmp):
    """The one-worker run every other placement must reproduce."""
    return survey_with_telemetry(tmp, "w1", "--workers", "1")


class TestTimeseriesByteIdentity:
    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_shard_pool_matches_single_worker(self, tmp, baseline,
                                              workers):
        ts, metrics = survey_with_telemetry(
            tmp, f"w{workers}", "--workers", workers)
        assert ts == baseline[0]
        assert metrics == baseline[1]

    @pytest.mark.parametrize("workers", ["2", "8"])
    def test_stealing_scheduler_matches_single_worker(self, tmp, baseline,
                                                      workers):
        ts, metrics = survey_with_telemetry(
            tmp, f"steal{workers}", "--workers", workers,
            "--lease-size", "2")
        assert ts == baseline[0]
        assert metrics == baseline[1]

    def test_timeseries_has_progress_gauges(self, tmp, baseline):
        import json

        lines = baseline[0].decode("utf-8").strip().splitlines()
        samples = [json.loads(line) for line in lines
                   if '"sample"' in line]
        assert samples, "survey emitted no time-series samples"
        gauges = samples[-1]["metrics"]
        stage_keys = [key for key in gauges
                      if key.startswith("run.progress.units_done")]
        assert stage_keys, gauges.keys()


class TestTelemetryIsInvisible:
    def test_metrics_identical_with_and_without_telemetry(self, tmp,
                                                          baseline):
        """The observer effect gate: telemetry riding along must not
        change one byte of the run's own metrics export."""
        bare = str(tmp / "bare.m.jsonl")
        run_cli(*ARGS, "--workers", "2", "--metrics-out", bare)
        assert open(bare, "rb").read() == baseline[1]


@pytest.fixture(scope="module")
def steal_setup(history):
    groups = build_samples(history.population.ranking,
                           top_n=20, stratum_size=5)
    engine, _easylist, _whitelist = build_engines(history)
    profiles = make_profile_factory(history)

    def crawler_factory() -> Crawler:
        return Crawler(engine, profile_factory=profiles,
                       retry_policy=RetryPolicy(max_attempts=3),
                       fault_injector=FaultInjector(
                           FaultPlan.uniform(0.3, rng=random.Random(7))))

    return groups, crawler_factory


class TestFlightReconstructsKillSchedule:
    def test_kill_schedule_event_sequence(self, steal_setup, tmp_path):
        """A deterministic kill schedule must be readable back out of
        the flight dump: the doomed slot spawns, is granted a lease,
        dies, forfeits the lease, and a replacement spawns."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        groups, factory = steal_setup
        path = str(tmp_path / "flight.jsonl")
        flight = FlightRecorder(path=path, run_id="kill-run")
        stats = StealStats()
        injector = WorkerCrashInjector(kill_after={0: 2})
        with observe(flight=flight):
            run_stealing_survey(groups, crawler_factory=factory,
                                workers=3, jitter_seed=7, stats=stats,
                                crash_injector=injector)
            flight.dump(reason="exit")
        assert stats.worker_deaths == 1

        dump = load_flight(path)
        events = dump.events
        kinds = [event["kind"] for event in events]
        # Three initial spawns plus one respawn for the killed slot.
        spawn_slots = [event["attrs"]["slot"] for event in events
                       if event["kind"] == "worker.spawn"]
        assert spawn_slots.count(0) == 2
        assert sorted(set(spawn_slots)) == [0, 1, 2]
        assert "lease.grant" in kinds
        # The injected death shows up as an exit event for slot 0 and
        # the forfeited lease is explicitly revoked.
        deaths = [event for event in events
                  if event["kind"] in ("worker.exit", "worker.timeout")]
        assert any(event["attrs"]["slot"] == 0 for event in deaths)
        revokes = [event for event in events
                   if event["kind"] == "lease.revoke"]
        assert revokes, kinds
        # Ordering: the doomed slot's death precedes its respawn.
        death_seq = min(event["seq"] for event in deaths
                        if event["attrs"]["slot"] == 0)
        respawn_seq = max(event["seq"] for event in events
                          if event["kind"] == "worker.spawn"
                          and event["attrs"]["slot"] == 0)
        assert death_seq < respawn_seq

        # The CLI renders the same story from the artifact alone.
        text = run_cli("obs", "flight", path)
        assert "reason=exit" in text
        assert "worker.spawn" in text
        assert "lease.revoke" in text

    def test_flight_kind_filter(self, steal_setup, tmp_path):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        groups, factory = steal_setup
        path = str(tmp_path / "flight.jsonl")
        flight = FlightRecorder(path=path, run_id="clean-run")
        with observe(flight=flight):
            run_stealing_survey(groups, crawler_factory=factory,
                                workers=2, jitter_seed=7)
            flight.dump(reason="exit")
        text = run_cli("obs", "flight", path, "--kind", "worker.*")
        body = text.splitlines()[1:]
        assert any("worker.spawn" in line for line in body)
        assert not any("lease.grant" in line for line in body)
