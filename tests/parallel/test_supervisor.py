"""Worker supervision and fault recovery in the work-stealing scheduler.

The contract under test: a deterministic kill schedule (worker exits,
wedges, poison units) changes *nothing* about the survey's results —
dead workers forfeit their lease, the units are stolen by survivors or
a respawned replacement, and only a unit that kills two workers is
retired, as an explicit quarantined outcome.
"""

import json
import multiprocessing
import os
import random

import pytest

from repro.measurement.samples import SampleGroup
from repro.measurement.survey import (SurveyConfig, build_engines,
                                      build_samples, make_profile_factory,
                                      run_survey)
from repro.obs import FlightRecorder, observe
from repro.parallel import scheduler
from repro.parallel.leases import (DEFAULT_LEASE_SIZE, Lease,
                                   guided_lease_size)
from repro.state import (Checkpoint, CrashInjector, SimulatedCrash,
                         crashing, lease_log_path, read_lease_strikes)
from repro.parallel.scheduler import (POISONED_ERROR_CLASS, SchedulerError,
                                      StealStats, run_stealing_survey,
                                      simulate_steal_makespan)
from repro.parallel.supervisor import (POISON_EXIT_CODE, Supervisor,
                                       WorkerCrashInjector, WorkerHandle)
from repro.web.crawler import Crawler
from repro.web.crawlstate import snapshot_outcome
from repro.web.faults import FaultInjector, FaultPlan
from repro.web.resilience import RetryPolicy

_FORKS = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not _FORKS,
                                reason="fork start method unavailable")


class TestWorkerCrashInjector:
    def test_kill_after_fires_on_first_incarnation_only(self):
        injector = WorkerCrashInjector(kill_after={1: 2})
        # Initial spawns are dealt in slot order, so slot 1's first
        # incarnation is incarnation 1 — that, and only that, dies.
        assert injector.verdict(slot=1, incarnation=1, units_done=2,
                                index=9) == "exit"
        assert injector.verdict(slot=1, incarnation=3, units_done=2,
                                index=9) is None
        assert injector.verdict(slot=0, incarnation=0, units_done=2,
                                index=9) is None

    def test_kill_after_counts_completed_units(self):
        injector = WorkerCrashInjector(kill_after={0: 3})
        assert injector.verdict(slot=0, incarnation=0, units_done=2,
                                index=4) is None
        assert injector.verdict(slot=0, incarnation=0, units_done=3,
                                index=5) == "exit"

    def test_wedge_slots_wedge_instead_of_exiting(self):
        injector = WorkerCrashInjector(kill_after={0: 1},
                                       wedge_slots=frozenset({0}))
        assert injector.verdict(slot=0, incarnation=0, units_done=1,
                                index=2) == "wedge"

    def test_poison_units_kill_every_incarnation(self):
        injector = WorkerCrashInjector(poison_units=frozenset({5}))
        for incarnation in (0, 1, 7):
            assert injector.verdict(slot=0, incarnation=incarnation,
                                    units_done=0, index=5) == "exit"
        assert injector.verdict(slot=0, incarnation=0, units_done=0,
                                index=6) is None

    def test_none_verdict_executes_as_noop(self):
        WorkerCrashInjector().execute(None)  # must simply return

    def test_default_exit_code_is_distinguishable(self):
        assert WorkerCrashInjector().exit_code == POISON_EXIT_CODE


class TestSupervisorBookkeeping:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            Supervisor(lambda *a: None, workers=0, heartbeat_timeout=1.0,
                       max_restarts=0)

    def test_respawn_exhausts_budget(self):
        supervisor = Supervisor(lambda *a: None, workers=2,
                                heartbeat_timeout=1.0, max_restarts=0)
        assert supervisor.respawn(0) is None
        assert supervisor.restarts_used == 0

    def test_heartbeat_lag_computed_from_send_stamp(self):
        clock = iter([0.0, 10.3, 20.0])
        supervisor = Supervisor(lambda *a: None, workers=1,
                                heartbeat_timeout=5.0, max_restarts=0,
                                clock=lambda: next(clock))
        handle = WorkerHandle(slot=0, incarnation=0, proc=None,
                              conn=None, last_seen=next(clock))
        # Receive at t=10.3 of a message stamped t=10.0: 0.3s of lag.
        lag = supervisor.note_heartbeat(handle, sent_s=10.0)
        assert lag == pytest.approx(0.3)
        assert handle.last_lag_s == pytest.approx(0.3)
        assert handle.last_seen == 10.3
        assert supervisor.max_lag_s == pytest.approx(0.3)
        # A smaller lag updates last_lag_s but not the maximum.
        lag = supervisor.note_heartbeat(handle, sent_s=19.9)
        assert lag == pytest.approx(0.1)
        assert supervisor.max_lag_s == pytest.approx(0.3)

    def test_heartbeat_lag_clamped_for_future_stamps(self):
        """A skewed send stamp must never extend the deadline."""
        clock = iter([0.0, 5.0])
        supervisor = Supervisor(lambda *a: None, workers=1,
                                heartbeat_timeout=5.0, max_restarts=0,
                                clock=lambda: next(clock))
        handle = WorkerHandle(slot=0, incarnation=0, proc=None,
                              conn=None, last_seen=next(clock))
        assert supervisor.note_heartbeat(handle, sent_s=99.0) == 0.0
        assert handle.last_lag_s == 0.0
        assert handle.last_seen == 5.0
        assert supervisor.max_lag_s == 0.0

    def test_unreported_units_are_the_lease_suffix(self):
        """Workers crawl a lease in order over an ordered pipe, so the
        units a revocation requeues are the ones after the reported
        prefix, and the first of them is the quarantine suspect."""
        handle = WorkerHandle(slot=0, incarnation=0, proc=None,
                              conn=None, last_seen=0.0)
        assert handle.idle and handle.unreported == ()
        handle.lease = Lease(0, (4, 5, 6, 7))
        assert not handle.idle
        assert handle.unreported == (4, 5, 6, 7)
        handle.reported = 1
        assert handle.unreported == (5, 6, 7)
        handle.reported = 4
        assert handle.unreported == ()

    def test_idle_workers_never_time_out(self):
        clock = iter([0.0, 100.0, 200.0])
        supervisor = Supervisor(lambda *a: None, workers=1,
                                heartbeat_timeout=0.5, max_restarts=0,
                                clock=lambda: next(clock))

        class _FakeProc:
            def is_alive(self):
                return True

        handle = type("H", (), {})()
        handle.proc = _FakeProc()
        handle.lease = None  # idle: owes us nothing
        handle.last_seen = next(clock)
        supervisor.handles[0] = handle
        assert supervisor.dead_workers() == []


# -- scheduler-level fault injection ----------------------------------------

def _snap(surveyed) -> str:
    return json.dumps(
        {group: [snapshot_outcome(outcome) for outcome in outcomes]
         for group, outcomes in surveyed.items()}, sort_keys=True)


@pytest.fixture(scope="module")
def steal_setup(history):
    """A 35-unit survey plus a crawler factory closing over a prebuilt
    engine (workers inherit it by fork — building EasyList per worker
    would blow the wedge test's short heartbeat on healthy workers)."""
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


@pytest.fixture(scope="module")
def reference(steal_setup):
    """The one-worker (inline) result every kill schedule must match."""
    groups, factory = steal_setup
    return _snap(run_stealing_survey(groups, crawler_factory=factory,
                                     workers=1, jitter_seed=7))


def _run(steal_setup, **kwargs):
    groups, factory = steal_setup
    stats = StealStats()
    surveyed = run_stealing_survey(groups, crawler_factory=factory,
                                   jitter_seed=7, stats=stats, **kwargs)
    return surveyed, stats


@needs_fork
class TestCrashRecovery:
    def test_clean_run_matches_inline(self, steal_setup, reference):
        surveyed, stats = _run(steal_setup, workers=3)
        assert _snap(surveyed) == reference
        assert stats.worker_deaths == 0
        assert stats.units_crawled == stats.units_total == 35

    def test_kill_at_unit_n_is_invisible_in_results(self, steal_setup,
                                                    reference):
        injector = WorkerCrashInjector(kill_after={0: 2})
        surveyed, stats = _run(steal_setup, workers=3,
                               crash_injector=injector)
        assert _snap(surveyed) == reference
        assert stats.worker_deaths == 1
        assert stats.worker_restarts == 1
        assert stats.units_reassigned >= 1
        assert stats.quarantined == []

    def test_killing_every_worker_once_still_identical(self, steal_setup,
                                                       reference):
        injector = WorkerCrashInjector(kill_after={0: 1, 1: 3})
        surveyed, stats = _run(steal_setup, workers=2,
                               crash_injector=injector)
        assert _snap(surveyed) == reference
        assert stats.worker_deaths == 2
        assert stats.worker_restarts == 2

    def test_wedged_worker_caught_by_heartbeat(self, steal_setup,
                                               reference):
        injector = WorkerCrashInjector(kill_after={0: 2},
                                       wedge_slots=frozenset({0}))
        surveyed, stats = _run(steal_setup, workers=3,
                               heartbeat_timeout=1.0,
                               crash_injector=injector)
        assert _snap(surveyed) == reference
        assert stats.heartbeat_timeouts == 1
        assert stats.worker_deaths == 1

    def test_poison_unit_quarantined_after_two_kills(self, steal_setup,
                                                     reference):
        injector = WorkerCrashInjector(poison_units=frozenset({5}))
        surveyed, stats = _run(steal_setup, workers=2,
                               crash_injector=injector)
        assert stats.quarantined == [5]
        assert stats.worker_deaths == 2  # exactly poison_threshold

        flat = [snapshot_outcome(o)
                for _group, outcomes in sorted(surveyed.items())
                for o in outcomes]
        expected = json.loads(reference)
        expected_flat = [snap
                         for _group, outcomes in sorted(expected.items())
                         for snap in outcomes]
        differing = [(ours, theirs) for ours, theirs
                     in zip(flat, expected_flat) if ours != theirs]
        # Only the poisoned unit differs, and it is an explicit failed
        # outcome — never an exception, never a silent gap.
        assert len(differing) == 1
        poisoned, _ = differing[0]
        assert poisoned["status"] == "failed"
        assert poisoned["error_class"] == POISONED_ERROR_CLASS

    def test_revoke_requeues_the_unreported_rest_of_the_lease(
            self, steal_setup, reference):
        """Slot 1's first incarnation dies before its third unit, inside
        a four-unit lease: the revocation names the first unreported
        unit as suspect and requeues exactly the unreported units."""
        kill_after = 2
        injector = WorkerCrashInjector(kill_after={1: kill_after})
        flight = FlightRecorder()
        with observe(flight=flight):
            surveyed, stats = _run(steal_setup, workers=2, lease_size=4,
                                   crash_injector=injector)
        assert _snap(surveyed) == reference
        events = flight.events()
        revokes = [event for event in events
                   if event["kind"] == "lease.revoke"]
        assert len(revokes) == 1
        revoke = revokes[0]["attrs"]
        assert revoke["slot"] == 1 and revoke["reason"] == "exit"
        # Until the first revocation, grants pop consecutive indices off
        # the pending heap, so each grant's indices follow from the
        # units granted before it.
        granted, offset = {}, 0
        for event in events[:events.index(revokes[0])]:
            if event["kind"] == "lease.grant":
                attrs = event["attrs"]
                granted[attrs["lease"]] = (
                    attrs["slot"], attrs["incarnation"],
                    tuple(range(offset, offset + attrs["units"])))
                offset += attrs["units"]
        slot, incarnation, indices = granted[revoke["lease"]]
        assert (slot, incarnation) == (1, 1)
        reported = kill_after - sum(
            len(earlier) for lease_id, (_s, inc, earlier) in granted.items()
            if inc == incarnation and lease_id < revoke["lease"])
        assert 0 < reported < len(indices)  # the kill lands mid-lease
        assert revoke["suspect"] == indices[reported]
        assert stats.units_reassigned == len(indices) - reported

    def test_lease_done_with_unreported_units_raises(self, steal_setup,
                                                     monkeypatch):
        """A worker may finish only a lease whose every unit reported:
        here each grant reaches the worker one unit short."""
        class DropLastUnit:
            def __init__(self, conn):
                self._conn = conn

            def send(self, message):
                if message[0] == "lease":
                    message = ("lease", message[1][:-1])
                self._conn.send(message)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        class ShortLeaseSupervisor(Supervisor):
            def _spawn(self, slot):
                handle = super()._spawn(slot)
                handle.conn = DropLastUnit(handle.conn)
                return handle

        monkeypatch.setattr(scheduler, "Supervisor", ShortLeaseSupervisor)
        with pytest.raises(SchedulerError, match="unreported units"):
            _run(steal_setup, workers=2)

    def test_restart_budget_exhaustion_raises(self, steal_setup):
        injector = WorkerCrashInjector(kill_after={0: 0, 1: 0})
        with pytest.raises(SchedulerError, match="restart budget"):
            _run(steal_setup, workers=2, max_worker_restarts=0,
                 crash_injector=injector)

    def test_backpressure_bound_does_not_change_results(self, steal_setup,
                                                        reference):
        surveyed, stats = _run(steal_setup, workers=2, max_backlog=1)
        assert _snap(surveyed) == reference
        assert stats.units_crawled == stats.units_total

    def test_injector_is_inert_on_the_inline_path(self, steal_setup,
                                                  reference):
        injector = WorkerCrashInjector(kill_after={0: 0},
                                       poison_units=frozenset({0}))
        surveyed, stats = _run(steal_setup, workers=1,
                               crash_injector=injector)
        assert _snap(surveyed) == reference
        assert stats.worker_deaths == 0


@needs_fork
class TestStrikePersistence:
    def test_poison_strikes_survive_parent_crash(self, steal_setup,
                                                 reference, tmp_path):
        """A unit condemned before the parent died stays condemned: the
        synced lease log replays its strikes on resume, so the poison
        unit never gets to kill two *fresh* workers per attempt."""
        groups, factory = steal_setup
        path = str(tmp_path / "steal.ckpt")
        injector = WorkerCrashInjector(poison_units=frozenset({6}))
        checkpoint = Checkpoint.start(path)
        try:
            # In-order flush stalls at the poisoned index until the
            # quarantine verdict, so a late crash step lands after both
            # strikes are in the (synced) lease log.
            with crashing(CrashInjector(at_step=30)):
                with pytest.raises(SimulatedCrash):
                    run_stealing_survey(groups, crawler_factory=factory,
                                        workers=2, jitter_seed=7,
                                        checkpoint=checkpoint,
                                        crash_injector=injector)
        finally:
            checkpoint.close()
        strikes, quarantined = read_lease_strikes(path, "survey")
        assert 6 in quarantined or strikes.get(6, 0) >= 2

        resumed = Checkpoint.resume(path)
        stats = StealStats()
        try:
            surveyed = run_stealing_survey(groups, crawler_factory=factory,
                                           workers=2, jitter_seed=7,
                                           checkpoint=resumed, stats=stats)
        finally:
            resumed.close()
        # No injector this time: only the replayed verdict can condemn,
        # either as a restored checkpoint entry (the crash happened
        # after the quarantined outcome flushed) or as a re-quarantine
        # seeded from the lease log's strikes.  Never a fresh death.
        assert stats.worker_deaths == 0
        assert stats.quarantined in ([], [6])
        assert not os.path.exists(lease_log_path(path))

        flat = [snapshot_outcome(o)
                for _group, outcomes in sorted(surveyed.items())
                for o in outcomes]
        expected_flat = [snap for _group, outcomes
                         in sorted(json.loads(reference).items())
                         for snap in outcomes]
        differing = [ours for ours, theirs in zip(flat, expected_flat)
                     if ours != theirs]
        assert len(differing) == 1
        assert differing[0]["error_class"] == POISONED_ERROR_CLASS


@needs_fork
class TestForkedLeasePlacement:
    def test_never_forks_more_workers_than_units(self, steal_setup,
                                                 reference, monkeypatch):
        groups, factory = steal_setup
        first = groups[0]
        three = [SampleGroup(first.name, first.group_index,
                             first.targets[:3])]
        supervisors = []

        class RecordingSupervisor(Supervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                supervisors.append(self)

        monkeypatch.setattr(scheduler, "Supervisor", RecordingSupervisor)
        stats = StealStats()
        surveyed = run_stealing_survey(three, crawler_factory=factory,
                                       workers=4, jitter_seed=7,
                                       stats=stats)
        supervisor, = supervisors
        assert supervisor.incarnations_spawned == 3
        assert stats.workers == 3
        assert _snap(surveyed) == json.dumps(
            {first.name: json.loads(reference)[first.name][:3]},
            sort_keys=True)

    def test_default_lease_survey_uses_both_workers(self, history):
        """At the default cap a 35-unit configuration still spreads over
        both workers, in guided grants, and matches one worker's
        output."""
        def survey(workers):
            result = run_survey(history, SurveyConfig(
                top_n=20, stratum_size=5, workers=workers))
            return result, json.dumps(
                [{group: [snapshot_outcome(o) for o in outcomes]
                  for group, outcomes in by_group.items()}
                 for by_group in (result.outcomes,
                                  result.outcomes_easylist_only)],
                sort_keys=True)

        _, serial = survey(1)
        flight = FlightRecorder()
        with observe(flight=flight):
            result, forked = survey(2)
        assert forked == serial
        grants = [event["attrs"] for event in flight.events()
                  if event["kind"] == "lease.grant"]
        assert {grant["slot"] for grant in grants} == {0, 1}

        pending = sum(len(group.targets) for group in result.groups)
        expected = []
        while pending:
            expected.append(guided_lease_size(pending, 2,
                                              DEFAULT_LEASE_SIZE))
            pending -= expected[-1]
        assert [grant["units"] for grant in grants] == expected * 2


class TestMakespanModel:
    def test_perfect_balance(self):
        assert simulate_steal_makespan([1.0] * 8, workers=4,
                                       lease_size=1) == 2.0

    def test_stealing_absorbs_a_straggler(self):
        # One 4s unit plus twelve 1s units on 4 workers: the straggler's
        # worker keeps it busy while the others steal the rest.
        latencies = [4.0] + [1.0] * 12
        assert simulate_steal_makespan(latencies, workers=4,
                                       lease_size=1) == 4.0

    def test_coarse_leases_cost_balance(self):
        latencies = [1.0] * 8
        fine = simulate_steal_makespan(latencies, workers=4, lease_size=1)
        coarse = simulate_steal_makespan(latencies, workers=4,
                                         lease_size=8)
        assert fine == 2.0 and coarse == 8.0

    def test_kill_requeues_unfinished_units(self):
        assert simulate_steal_makespan([1.0] * 8, workers=4, lease_size=1,
                                       kill=(0, 0.5)) == 3.0

    def test_empty_input(self):
        assert simulate_steal_makespan([], workers=4, lease_size=2) == 0.0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_steal_makespan([1.0], workers=0, lease_size=1)
