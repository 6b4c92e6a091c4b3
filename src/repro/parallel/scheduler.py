"""The survey crawl executor: supervised work stealing.

:func:`run_stealing_survey` is the one executor of the Section 5 survey
crawl.  It flattens the sample groups into one globally ordered unit
list and runs every unit *shared-nothing*:

* its backoff jitter comes from an RNG derived purely from
  ``(fault_seed, "crawl-jitter", domain, rank)`` (see
  :mod:`repro.parallel.rng`), not from a stream shared with earlier
  targets;
* its simulated clock is rewound to zero, so each unit's latency is an
  exact float sum from ``t=0`` rather than a difference between two
  large accumulated clock positions;
* its outcome round-trips through the checkpoint snapshot codec before
  merging, so a live result and a journal-restored one are the same
  object shape down to the byte.

With one worker (the survey default) the units run in-process, one at a
time and with no leases; with more, the parent forks workers (never more
than there are units to grant) and *dispatches*: it grants bounded *leases*
(:mod:`repro.parallel.leases`) of the lowest pending unit indices to
whichever worker is idle, full-size while much work remains and
shrinking toward one unit at the tail; a
:class:`~repro.parallel.supervisor.Supervisor` watches every worker's
wall-clock heartbeat and exit status; and a dead or wedged worker
forfeits exactly its outstanding lease — the lost units are requeued
and *stolen* by the survivors while a replacement is forked, up to a
restart budget.

**Determinism.**  Results are byte-identical for any worker count *and
any kill schedule*, because every unit executes under the
shared-nothing invariants above (see :func:`_crawl_unit`) and the
parent folds results in global unit order.  A unit that dies with its
worker is simply re-crawled elsewhere: same derivation, same bytes.

**Engine sharing.**  The parent's engine is frozen before workers fork,
so each worker inherits the compiled filter indexes
(:mod:`repro.filters.compiled`) as read-only copy-on-write pages that
stay physically shared for the worker's lifetime.

**Quarantine.**  A unit whose execution kills ``poison_threshold``
workers (default two) is not retried forever: it is *quarantined* as an
explicit failed outcome with ``error_class="worker-poison"`` —
mirroring the rule that every target yields an outcome, never an
exception.  Strikes survive parent crashes via the lease log
(:mod:`repro.state.leaselog`), a supervision side-journal that never
touches the main checkpoint.

**Streaming + backpressure.**  Forked workers journal each completed
unit to a per-incarnation *shard journal* (``<checkpoint>.shardNNN``,
the checkpoint's checksummed format, each record tagged with the unit's
global index) and stream it home over the pipe; the parent flushes
results into the main checkpoint *in global index order* as the
frontier completes, holding only out-of-order completions in a reorder
buffer.  When the buffer reaches ``max_backlog``, new leases are
deferred — except the lease containing the flush frontier, so the
drain can never deadlock.  That bound is what keeps a million-unit run
in constant parent memory.  A finished checkpoint is indistinguishable
from an in-process one; on resume, leftover shard journals of a crashed
run are *adopted* first (:func:`adopt_shard_journals`), so a resume may
change the worker count freely.

**Metrics and traces.**  Each unit runs under a private
:class:`~repro.obs.metrics.MetricsRegistry` and a private
:class:`~repro.obs.trace.Tracer` rooted at the parent's enclosing span
(deterministic span IDs namespaced by global unit index) and timed on
the unit's simulated clock.  The parent merges the snapshots and adopts
the span records in global unit order, so ``--metrics-out`` and
``--trace`` exports are byte-identical for every worker count.

**Telemetry.**  Lease grants, steals, deaths, timeouts, and quarantines
describe execution placement, not results, so they never enter the
result registry or trace: they land in :class:`StealStats` and, when
observability is on, the :data:`repro.obs.OBS.diagnostics` registry — a
channel exporters exclude by default precisely so metric exports stay
byte-identical across kill schedules.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Sequence

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    ProgressTracker,
    Tracer,
)
from repro.parallel.leases import (DEFAULT_LEASE_SIZE, Lease,
                                   generate_leases, guided_lease_size)
from repro.parallel.rng import derive_rng
from repro.parallel.supervisor import Supervisor, WorkerCrashInjector
from repro.state.checkpoint import Checkpoint
from repro.state.journal import JournalError, RunJournal, replay_journal
from repro.state.leaselog import (LeaseLog, discard_lease_log,
                                  read_lease_strikes)
from repro.web.crawler import Crawler, CrawlOutcome, CrawlStatus, CrawlTarget
from repro.web.crawlstate import restore_outcome, snapshot_outcome, unit_key

__all__ = [
    "run_stealing_survey",
    "StealStats",
    "SchedulerError",
    "POISONED_ERROR_CLASS",
    "simulate_steal_makespan",
    "adopt_shard_journals",
    "shard_journal_path",
    "list_shard_journals",
]

#: ``CrawlOutcome.error_class`` of a quarantined (poisoned) unit.
POISONED_ERROR_CLASS = "worker-poison"

#: Wall seconds of lease-holding silence before a worker is declared
#: wedged.  Generous — real units complete in milliseconds; tests that
#: inject wedges dial it way down.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: Purpose label mixed into every derived per-unit rng seed.
_JITTER_LABEL = "crawl-jitter"

_SHARD_SUFFIX = ".shard"


class SchedulerError(RuntimeError):
    """The scheduler cannot make progress (all workers dead, restart
    budget spent, units still pending)."""


@dataclass(slots=True)
class StealStats:
    """Supervision telemetry for one scheduling pass — not a result.

    Everything here may vary with worker count, host timing, and kill
    schedule, which is exactly why it lives outside the result
    registry and trace.
    """

    workers: int = 0
    lease_size: int = 0
    units_total: int = 0
    units_restored: int = 0
    units_crawled: int = 0
    leases_granted: int = 0
    units_reassigned: int = 0
    worker_deaths: int = 0
    heartbeat_timeouts: int = 0
    worker_restarts: int = 0
    backpressure_stalls: int = 0
    max_heartbeat_lag_s: float = 0.0
    quarantined: list[int] = field(default_factory=list)

    def publish(self) -> None:
        """Mirror the counters into ``OBS.diagnostics`` (if enabled)."""
        registry = OBS.diagnostics
        if not registry.enabled:
            return
        for name, value in (
                ("leases_granted", self.leases_granted),
                ("units_crawled", self.units_crawled),
                ("units_reassigned", self.units_reassigned),
                ("worker_deaths", self.worker_deaths),
                ("heartbeat_timeouts", self.heartbeat_timeouts),
                ("worker_restarts", self.worker_restarts),
                ("backpressure_stalls", self.backpressure_stalls),
                ("quarantined_units", len(self.quarantined))):
            if value:
                registry.counter(f"parallel.steal.{name}").inc(value)
        if self.max_heartbeat_lag_s:
            registry.gauge("parallel.steal.max_heartbeat_lag_ms").set(
                round(self.max_heartbeat_lag_s * 1000.0, 3))


# -- shard journals --------------------------------------------------------

def shard_journal_path(checkpoint_path: str, shard_index: int) -> str:
    """Where worker incarnation ``shard_index`` journals its units."""
    return f"{checkpoint_path}{_SHARD_SUFFIX}{shard_index:03d}"


def list_shard_journals(checkpoint_path: str) -> list[str]:
    """Existing shard journal files next to ``checkpoint_path``, sorted."""
    directory = os.path.dirname(checkpoint_path) or "."
    prefix = os.path.basename(checkpoint_path) + _SHARD_SUFFIX
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        os.path.join(directory, name) for name in names
        if name.startswith(prefix) and name[len(prefix):].isdigit())


def adopt_shard_journals(checkpoint: Checkpoint, scope: str) -> int:
    """Fold leftover shard journals from a crashed run into ``checkpoint``.

    Units are adopted in global-index order so the main journal reads
    exactly as if the crashed run had merged them itself; units the
    checkpoint already has (the crash hit mid-merge) are skipped.  A
    shard file is deleted once it holds nothing belonging to another
    scope; an unreadable (corrupt) shard is discarded — its units are
    simply re-crawled, deterministically.

    Returns the number of units adopted.
    """
    adopted = 0
    for path in list_shard_journals(checkpoint.path):
        try:
            records, _truncated = replay_journal(path)
        except JournalError:
            records = []
        units = [record for record in records
                 if record.get("kind") == "unit"]
        mine = sorted((unit for unit in units if unit["scope"] == scope),
                      key=lambda unit: unit["index"])
        for unit in mine:
            if not checkpoint.is_done(scope, unit["key"]):
                checkpoint.record(scope, unit["key"], unit["payload"])
                adopted += 1
        if all(unit["scope"] == scope for unit in units):
            os.remove(path)
    if adopted:
        checkpoint.sync()
    return adopted


# -- per-unit shared-nothing execution -------------------------------------

def _crawl_unit(crawler: Crawler, unit: tuple[int, str, CrawlTarget],
                *, jitter_seed: int, collect_metrics: bool,
                collect_spans: bool, trace_context: tuple[str, int]
                ) -> tuple[str, dict, dict | None, list | None]:
    """Crawl one ``(index, group_name, target)`` unit shared-nothing.

    Returns the mergeable ``(key, payload, metrics, spans)``, where
    ``payload`` is the checkpoint unit payload, ``metrics`` is the
    unit's registry snapshot (``None`` with metrics off), and ``spans``
    is the unit's span-record shard (``None`` with tracing off).

    ``trace_context`` is ``(parent_span_id, depth)`` of the parent
    process's enclosing span: each unit's private tracer is rooted
    there, with the unit's global index as its root ordinal namespace,
    so its span IDs come out identical no matter which worker runs it.
    """
    from repro.obs.export import span_records

    index, group_name, target = unit
    trace_parent, trace_depth = trace_context
    rng = derive_rng(jitter_seed, _JITTER_LABEL, target.domain, target.rank)
    # Latencies are clock *deltas*; rewinding to zero per unit makes
    # them exact sums from t=0, independent of what earlier units on
    # this worker consumed (float addition is not associative).
    crawler.clock.rewind()
    metrics = None
    spans = None
    if OBS.enabled:
        previous = (OBS.registry, OBS.tracer, OBS.enabled)
        registry = MetricsRegistry() if collect_metrics else NULL_REGISTRY
        # The unit tracer runs on the unit's simulated clock: its
        # readings (and so the exported spans) are deterministic,
        # unlike wall time, which is what byte-identity across
        # worker counts requires.
        tracer = (Tracer(clock=crawler.clock.now,
                         root_parent_id=trace_parent,
                         root_depth=trace_depth,
                         root_ordinal_ns=f"{index}:")
                  if collect_spans else NULL_TRACER)
        OBS.registry = registry
        OBS.tracer = tracer
        OBS.enabled = registry.enabled or tracer.enabled
        try:
            outcome = crawler.visit_target(target, rng=rng, unit=index)
        finally:
            OBS.registry, OBS.tracer, OBS.enabled = previous
        if collect_metrics:
            metrics = registry.snapshot()
        if collect_spans:
            spans = span_records(tracer)
    else:
        outcome = crawler.visit_target(target, rng=rng)
    payload = {"group": group_name, "outcome": snapshot_outcome(outcome)}
    return unit_key(group_name, target), payload, metrics, spans


# -- the deterministic makespan model --------------------------------------

def simulate_steal_makespan(latencies: Sequence[float], workers: int,
                            lease_size: int, *,
                            kill: tuple[int, float] | None = None
                            ) -> float:
    """Model the steal scheduler's wall-clock on ``workers`` free cores.

    A pure event simulation: leases of consecutive units go to the
    earliest-free worker, so the result is what real wall-clock
    converges to on an unloaded machine — the deterministic number the
    benchmark asserts on (CI wall-clock is weather; this is climate).

    The model assumes fixed-size leases that cost nothing to grant, so
    it never charges a small lease for its dispatch.  The forked dispatcher pays a
    real per-lease cost (a pipe round trip and a shard-journal
    ``fsync``) and sizes its grants with
    :func:`~repro.parallel.leases.guided_lease_size` instead; read this
    as a measure of balance, not as a wall-clock prediction.

    ``kill=(slot, at_time)`` removes one worker at a simulated instant:
    units of its in-flight lease unfinished by then requeue for the
    survivors, exactly like a revoked lease, and no replacement is
    forked (the pessimistic case — a respawn only improves on it).

    >>> simulate_steal_makespan([1.0] * 8, workers=4, lease_size=1)
    2.0
    >>> simulate_steal_makespan([], workers=4, lease_size=1)
    0.0
    >>> simulate_steal_makespan([1.0] * 8, workers=4, lease_size=1,
    ...                         kill=(0, 0.5))
    3.0
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not latencies:
        return 0.0
    queue = deque(generate_leases(range(len(latencies)), lease_size))
    free_at = [0.0] * workers
    alive = [True] * workers
    kill_slot, kill_time = kill if kill is not None else (None, 0.0)
    makespan = 0.0
    while queue:
        lease = queue.popleft()
        slots = [slot for slot in range(workers) if alive[slot]]
        if not slots:
            raise SchedulerError("makespan model: every worker is dead")
        slot = min(slots, key=lambda s: (free_at[s], s))
        if slot == kill_slot and free_at[slot] >= kill_time:
            alive[slot] = False  # died while idle; re-pick a worker
            queue.appendleft(lease)
            continue
        elapsed = free_at[slot]
        requeued: tuple[int, ...] = ()
        for position, index in enumerate(lease.indices):
            finish = elapsed + latencies[index]
            if slot == kill_slot and elapsed <= kill_time < finish:
                requeued = lease.indices[position:]
                alive[slot] = False
                elapsed = kill_time
                break
            elapsed = finish
        free_at[slot] = elapsed
        makespan = max(makespan, elapsed)
        for chunk in reversed(generate_leases(requeued, lease_size)):
            queue.appendleft(chunk)
    return makespan


# -- the scheduler ---------------------------------------------------------

def _poisoned_payload(group_name: str, target: CrawlTarget, *,
                      threshold: int) -> tuple[str, dict]:
    """The deterministic checkpoint entry of a quarantined unit."""
    outcome = CrawlOutcome(target=target, status=CrawlStatus.FAILED,
                           record=None,
                           error_class=POISONED_ERROR_CLASS,
                           attempts=threshold, latency_ms=0.0)
    return unit_key(group_name, target), {
        "group": group_name,
        "outcome": snapshot_outcome(outcome)}


def run_stealing_survey(groups, *, crawler_factory: Callable[[], Crawler],
                        workers: int, jitter_seed: int = 0,
                        checkpoint: Checkpoint | None = None,
                        scope: str = "survey",
                        scope_config: dict | None = None,
                        lease_size: int = DEFAULT_LEASE_SIZE,
                        max_worker_restarts: int = 4,
                        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                        poison_threshold: int = 2,
                        max_backlog: int | None = None,
                        crash_injector: WorkerCrashInjector | None = None,
                        stats: StealStats | None = None,
                        ) -> dict[str, list[CrawlOutcome]]:
    """Crawl ``groups`` under the supervised work-stealing scheduler.

    ``crawler_factory`` must build an equivalent crawler on every call
    (each forked worker constructs its own); ``jitter_seed`` roots the
    per-unit rng derivation and should be the survey's ``fault_seed``.
    ``workers=1`` runs every unit in-process; more fork that many
    supervised workers, or one per grantable unit if that is fewer.
    ``lease_size`` caps the forked dispatcher's grants: it grants
    :func:`~repro.parallel.leases.guided_lease_size` units, which
    shrinks toward one at the tail.  The in-process path grants no
    leases.  With a ``checkpoint``, completed units are restored
    instead of re-crawled and new ones are journaled crash-safely (see
    module docstring).  Returns outcomes per group,
    in target order — byte-identical for every ``workers`` value, with
    checkpoint resume across worker counts.  A worker death or wedge
    costs only time, and a unit that kills ``poison_threshold`` workers
    is retired as an explicit ``failed`` outcome instead of retried
    forever.

    ``crash_injector`` deterministically kills or wedges workers (the
    test/benchmark harness); it only acts on the forked path.
    ``stats``, when given, is filled with supervision telemetry.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if poison_threshold < 1:
        raise ValueError(
            f"poison_threshold must be >= 1, got {poison_threshold}")
    if stats is None:
        stats = StealStats()
    stats.lease_size = lease_size

    units: list[tuple[int, str, CrawlTarget]] = [
        (index, group.name, target)
        for index, (group, target) in enumerate(
            (group, target) for group in groups for target in group.targets)]
    unit_by_index = {unit[0]: unit for unit in units}
    outcomes: dict[int, CrawlOutcome] = {}
    stats.units_total = len(units)

    checkpoint_path = None
    seeded_strikes: dict[int, int] = {}
    seeded_quarantine: set[int] = set()
    if checkpoint is not None:
        checkpoint_path = checkpoint.path
        checkpoint.begin_scope(scope, scope_config)
        if checkpoint.resumed:
            # Read the crashed run's suspicions BEFORE LeaseLog.start
            # truncates the file below.
            seeded_strikes, seeded_quarantine = read_lease_strikes(
                checkpoint_path, scope)
        adopt_shard_journals(checkpoint, scope)
        index_by_key = {unit_key(group_name, target): index
                        for index, group_name, target in units}
        for key, payload in checkpoint.completed(scope):
            index = index_by_key.get(key)
            if index is not None:
                outcomes[index] = restore_outcome(payload["outcome"])
    stats.units_restored = len(outcomes)

    pending = sorted(unit[0] for unit in units if unit[0] not in outcomes)
    collect_metrics = OBS.registry.enabled
    collect_spans = OBS.tracer.enabled
    parent_span = OBS.tracer.current() if collect_spans else None
    trace_context = ((parent_span.span_id, parent_span.depth + 1)
                     if parent_span is not None else ("", 0))

    # -- in-order flush machinery (shared by inline and forked paths) -----
    # ``buffer`` holds completed-but-unflushed results keyed by global
    # index; ``cursor`` walks ``pending`` and flushes each index the
    # moment it (and everything before it) is present.  The checkpoint
    # journal, metric merges, and trace adoption therefore happen in
    # exactly the order a one-worker run would produce them.
    buffer: dict[int, tuple[str, dict, object, object]] = {}
    cursor = 0
    strikes = dict(seeded_strikes)

    # Progress gauges + simulated-clock ticks happen at *flush* time —
    # global unit order — so they are a pure function of the workload,
    # identical at any worker count and under any kill schedule.
    progress = (ProgressTracker(scope, len(units), done=len(outcomes))
                if OBS.registry.enabled or OBS.timeseries.enabled
                else None)

    def flush() -> None:
        nonlocal cursor
        while cursor < len(pending) and pending[cursor] in buffer:
            index = pending[cursor]
            cursor += 1
            key, payload, metrics, spans = buffer.pop(index)
            if checkpoint is not None:
                checkpoint.record(scope, key, payload)
            if collect_metrics and metrics is not None:
                OBS.registry.merge(metrics)
            if collect_spans and spans:
                OBS.tracer.adopt(spans)
            outcomes[index] = restore_outcome(payload["outcome"])
            if progress is not None:
                progress.step(outcomes[index].latency_ms)

    def flush_complete() -> bool:
        return cursor >= len(pending)

    def frontier() -> int | None:
        """The lowest not-yet-flushed global index."""
        return pending[cursor] if cursor < len(pending) else None

    # Units the crashed run already condemned start condemned: strikes
    # live in the synced lease log, so a poison unit never gets to kill
    # two fresh workers per resume.
    pre_quarantined = sorted(
        index for index in pending
        if index in seeded_quarantine
        or strikes.get(index, 0) >= poison_threshold)
    condemned = set(pre_quarantined)
    grantable = [index for index in pending if index not in condemned]
    # A worker with nothing to lease only costs a fork.
    workers = min(workers, max(1, len(grantable)))
    stats.workers = workers
    forked = (workers > 1
              and "fork" in multiprocessing.get_all_start_methods())

    # Only forked workers can die, so only a forked run journals
    # supervision events.  An in-process run leaves a crashed
    # predecessor's lease log as it is (its strikes still count if this
    # run crashes too) and discards it on a clean finish.
    lease_log: LeaseLog | None = None
    if checkpoint_path is not None and forked:
        lease_log = LeaseLog.start(checkpoint_path, scope)

    def quarantine(index: int) -> None:
        _, group_name, target = unit_by_index[index]
        key, payload = _poisoned_payload(group_name, target,
                                         threshold=poison_threshold)
        buffer[index] = (key, payload, None, None)
        stats.quarantined.append(index)
        OBS.flight.record("unit.quarantine", unit=index,
                          strikes=strikes.get(index, 0))
        if lease_log is not None:
            lease_log.quarantine(index)

    for index in pre_quarantined:
        quarantine(index)

    # -- in-process mode ---------------------------------------------------
    def run_inline() -> None:
        """One worker (the survey default) or no fork support: units
        run in-process one at a time, journaling straight into the
        checkpoint.  No leases: there is nothing to balance.

        Same flush path as the forked scheduler, so the checkpoint
        journal, metric merge order, and adopted trace — and therefore
        every export — are byte-identical at every worker count
        including 1.
        """
        crawler = crawler_factory()
        group_ends = {end - 1 for end in itertools.accumulate(
            len(group.targets) for group in groups)}
        for index in grantable:
            buffer[index] = _crawl_unit(
                crawler, unit_by_index[index], jitter_seed=jitter_seed,
                collect_metrics=collect_metrics,
                collect_spans=collect_spans, trace_context=trace_context)
            stats.units_crawled += 1
            flush()
            if checkpoint is not None and index in group_ends:
                checkpoint.sync()  # durability barrier once per group

    # -- forked worker entry (inherited by fork, never pickled) -----------
    def worker_entry(slot: int, incarnation: int, conn) -> None:
        from repro.parallel.caches import reset_process_caches
        from repro.state.crashpoints import CRASH

        reset_process_caches()
        # Parent-death injection (repro.state.crashpoints) must not fire
        # in workers: worker death has its own deterministic injector.
        CRASH.injector = None
        crawler = crawler_factory()
        journal = None
        if checkpoint_path is not None:
            journal = RunJournal.create(
                shard_journal_path(checkpoint_path, incarnation),
                {"shard": incarnation, "scope": scope, "slot": slot})

        units_done = 0
        try:
            while True:
                message = conn.recv()
                if message[0] == "stop":
                    break
                for index in message[1]:
                    if crash_injector is not None:
                        crash_injector.execute(crash_injector.verdict(
                            slot, incarnation, units_done, index))
                    key, payload, metrics, spans = _crawl_unit(
                        crawler, unit_by_index[index],
                        jitter_seed=jitter_seed,
                        collect_metrics=collect_metrics,
                        collect_spans=collect_spans,
                        trace_context=trace_context)
                    if journal is not None:
                        journal.append({"kind": "unit", "scope": scope,
                                        "key": key, "index": index,
                                        "payload": payload})
                    if spans:
                        # Transport tag for crash forensics; the parent
                        # strips it at adoption (placement is not a
                        # result).
                        for span_record in spans:
                            span_record["worker"] = slot
                    # Every message carries a monotonic send stamp as
                    # its final element; fork children share the
                    # parent's CLOCK_MONOTONIC epoch, so the parent
                    # turns receive-minus-send into heartbeat *lag*.
                    conn.send(("unit", index, key, payload, metrics, spans,
                               time.monotonic()))
                    units_done += 1
                if journal is not None:
                    journal.sync()  # batched fsync, once per lease
                conn.send(("lease_done", time.monotonic()))
        except (EOFError, KeyboardInterrupt):
            pass  # parent gone; nothing left to report to
        finally:
            if journal is not None:
                journal.close()
        conn.close()
        os._exit(0)

    # -- the forked dispatcher --------------------------------------------
    def run_forked() -> Supervisor:
        backlog_cap = (max_backlog if max_backlog is not None
                       else max(64, 8 * lease_size * workers))
        poll_interval = min(0.05, max(0.01, heartbeat_timeout / 5.0))
        supervisor = Supervisor(worker_entry, workers=workers,
                                heartbeat_timeout=heartbeat_timeout,
                                max_restarts=max_worker_restarts)
        lease_ids = itertools.count()
        heap = list(grantable)
        heapq.heapify(heap)

        def on_message(handle, message) -> None:
            # A handle's pipe is drained before its lease is revoked and
            # closed after, so every message answers the lease it holds.
            if message[0] == "unit":
                _, index, key, payload, metrics, spans = message
                handle.reported += 1
                buffer[index] = (key, payload, metrics, spans)
                stats.units_crawled += 1
                strikes.pop(index, None)  # it ran fine; absolve it
            else:  # "lease_done"
                if handle.unreported:
                    raise SchedulerError(
                        f"lease {handle.lease.lease_id} finished with "
                        f"unreported units {handle.unreported}")
                handle.lease = None

        def drain(handle) -> None:
            try:
                while handle.conn.poll():
                    message = handle.conn.recv()
                    # Strip the trailing monotonic send stamp and turn
                    # it into heartbeat lag before dispatching.
                    lag = supervisor.note_heartbeat(handle, message[-1])
                    if OBS.diagnostics.enabled:
                        OBS.diagnostics.gauge(
                            "parallel.steal.heartbeat_lag_ms",
                            slot=handle.slot).set(round(lag * 1000.0, 3))
                    on_message(handle, message[:-1])
            except (EOFError, OSError):
                pass  # worker died mid-message; the reap handles it

        def revoke(handle, reason: str) -> None:
            stats.worker_deaths += 1
            if reason == "timeout":
                stats.heartbeat_timeouts += 1
            drain(handle)  # salvage results already in the pipe
            if handle.lease is not None:
                lease_id = handle.lease.lease_id
                requeue = handle.unreported
                suspect = requeue[0] if requeue else None
                OBS.flight.record("lease.revoke", lease=lease_id,
                                  slot=handle.slot, reason=reason,
                                  suspect=suspect)
                if suspect is not None:
                    strikes[suspect] = strikes.get(suspect, 0) + 1
                if lease_log is not None:
                    lease_log.revoke(lease_id, reason=reason,
                                     suspect=suspect,
                                     strikes=strikes.get(suspect, 0))
                if (suspect is not None
                        and strikes[suspect] >= poison_threshold):
                    quarantine(suspect)
                    requeue = requeue[1:]
                for index in requeue:
                    heapq.heappush(heap, index)
                stats.units_reassigned += len(requeue)
                handle.lease = None
            try:
                handle.conn.close()
            except OSError:
                pass

        def try_grant() -> None:
            for handle in list(supervisor.handles.values()):
                if not heap:
                    return
                if not handle.idle:
                    continue
                if len(buffer) >= backlog_cap and heap[0] != frontier():
                    # Backpressure: defer every lease except the one
                    # that unblocks the in-order flush frontier.
                    stats.backpressure_stalls += 1
                    return
                size = guided_lease_size(len(heap), workers, lease_size)
                indices = [heapq.heappop(heap) for _ in range(size)]
                lease = Lease(next(lease_ids), tuple(indices))
                handle.lease = lease
                handle.reported = 0
                supervisor.note_activity(handle)  # deadline from grant
                stats.leases_granted += 1
                OBS.flight.record("lease.grant", lease=lease.lease_id,
                                  slot=handle.slot,
                                  incarnation=handle.incarnation,
                                  units=len(indices))
                if lease_log is not None:
                    lease_log.grant(lease.lease_id, handle.slot,
                                    handle.incarnation, indices)
                try:
                    handle.conn.send(("lease", indices))
                except (BrokenPipeError, OSError):
                    pass  # found dead on the next poll; revoked there

        def sample_liveness() -> None:
            """Per-heartbeat placement gauges → diagnostics sidecar.

            Everything here varies with timing and kill schedule, so it
            goes to ``OBS.diagnostics`` (excluded from result exports)
            and the wall-clock-rate-limited ``.diag`` time-series
            sidecar, never the deterministic main stream.
            """
            if OBS.diagnostics.enabled:
                registry = OBS.diagnostics
                registry.gauge("parallel.steal.workers_live").set(
                    len(supervisor.handles))
                registry.gauge("parallel.steal.backlog").set(len(buffer))
                registry.gauge("parallel.steal.lease_queue").set(
                    len(heap) + sum(len(handle.unreported) for handle
                                    in supervisor.handles.values()))
                registry.gauge("parallel.steal.units_flushed").set(
                    cursor)
                registry.gauge(
                    "parallel.steal.max_heartbeat_lag_ms").set(
                    round(supervisor.max_lag_s * 1000.0, 3))
                for handle in supervisor.handles.values():
                    registry.gauge("parallel.steal.worker_idle",
                                   slot=handle.slot).set(
                        1 if handle.idle else 0)
            OBS.timeseries.sample_diagnostics()

        supervisor.spawn_initial()
        try:
            while True:
                flush()
                if flush_complete():
                    break
                try_grant()
                if not supervisor.handles:
                    raise SchedulerError(
                        f"no workers left: {stats.worker_deaths} "
                        f"died ({stats.heartbeat_timeouts} wedged), "
                        f"restart budget {max_worker_restarts} "
                        f"spent, {len(heap)} unit(s) unfinished")
                by_conn = {handle.conn: handle
                           for handle in supervisor.handles.values()}
                for ready in connection.wait(list(by_conn),
                                             timeout=poll_interval):
                    drain(by_conn[ready])
                dead = supervisor.dead_workers()
                for handle, reason in dead:
                    revoke(handle, reason)
                # Replace the dead while work is queued or still leased.
                if heap or not all(live.idle
                                   for live in supervisor.handles.values()):
                    for handle, _reason in dead:
                        supervisor.respawn(handle.slot)
                sample_liveness()
        finally:
            supervisor.shutdown()  # no zombies, on any path
        stats.worker_restarts = supervisor.restarts_used
        stats.max_heartbeat_lag_s = supervisor.max_lag_s
        return supervisor

    try:
        if not grantable:
            flush()  # restored and pre-quarantined units only
        elif not forked:
            run_inline()
            flush()
        else:
            supervisor = run_forked()
            # A clean finish leaves no supervision residue: every unit
            # in the per-incarnation shard journals was flushed into
            # the checkpoint, exactly like an in-process run's.
            if checkpoint_path is not None:
                for incarnation in range(supervisor.incarnations_spawned):
                    path = shard_journal_path(checkpoint_path, incarnation)
                    if os.path.exists(path):
                        os.remove(path)
    except BaseException:
        # Crash path: keep the lease log and every shard journal — the
        # resumed run adopts them.  (Workers are already reaped; the
        # supervisor's shutdown runs on every exit path.)
        if lease_log is not None:
            lease_log.close()
        raise

    if checkpoint is not None:
        checkpoint.sync()
    if lease_log is not None:
        lease_log.remove()
    elif checkpoint_path is not None:
        discard_lease_log(checkpoint_path, scope)
    stats.publish()

    outcomes_by_group: dict[str, list[CrawlOutcome]] = {
        group.name: [] for group in groups}
    for index, group_name, _target in units:
        outcomes_by_group[group_name].append(outcomes[index])
    return outcomes_by_group
