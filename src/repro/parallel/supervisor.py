"""Worker supervision for the work-stealing scheduler: spawn, watch, reap.

The scheduler's parent process must answer one question continuously:
*is every worker that holds a lease still making progress?*  This
module owns that answer.  A :class:`Supervisor` spawns fork workers,
tracks a wall-clock heartbeat deadline per worker (``time.monotonic``
— deliberately independent of the survey's *simulated* clock, which a
wedged worker stops advancing), reaps exited processes, and respawns
replacements up to a restart budget.

Death is detected two ways:

* **exit reap** — the worker process is no longer alive
  (``Process.is_alive()`` false); its exit code/signal is recorded;
* **heartbeat deadline** — the worker is alive but has sent nothing
  for longer than ``heartbeat_timeout`` while holding a lease (the
  wedge signature: an infinite loop, a deadlocked pipe, a stuck
  syscall).  The supervisor SIGTERMs it and treats it as dead.

Deterministic failure injection lives here too:
:class:`WorkerCrashInjector` extends the crash-injection idiom of
:mod:`repro.state.crashpoints` from *parent* death to *worker* death —
kill worker slot K after N units, wedge instead of exiting, or poison
global unit M so it kills whichever worker touches it, every time.
The injector is consulted inside the worker process; it is immutable,
so every forked incarnation sees the same schedule and a given kill
plan replays identically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.parallel.leases import Lease

__all__ = [
    "WorkerCrashInjector",
    "WorkerHandle",
    "Supervisor",
    "POISON_EXIT_CODE",
]

#: Exit code injected worker deaths use; distinguishable from crashes.
POISON_EXIT_CODE = 76


@dataclass(frozen=True)
class WorkerCrashInjector:
    """A deterministic worker-death schedule (test/benchmark harness).

    ``kill_after`` maps a worker *slot* to the number of units its
    first incarnation completes before dying; the replacement (a later
    incarnation on the same slot) survives, so a kill schedule models a
    transient worker loss.  The supervisor numbers incarnations
    globally and deals the initial round in slot order, so slot ``k``'s
    first incarnation is exactly incarnation ``k`` — that is the gate.
    Slots listed in ``wedge_slots`` wedge — spin without reporting, to
    be caught by the heartbeat deadline — instead of exiting.
    ``poison_units`` are global unit indices that kill *any* worker
    attempting them, every time: the quarantine trigger.

    >>> injector = WorkerCrashInjector(kill_after={1: 2})
    >>> injector.verdict(slot=1, incarnation=1, units_done=2, index=9)
    'exit'
    >>> injector.verdict(slot=1, incarnation=3, units_done=2, index=9)
    >>> injector.verdict(slot=0, incarnation=0, units_done=2, index=9)
    """

    kill_after: Mapping[int, int] = field(default_factory=dict)
    wedge_slots: frozenset = frozenset()
    poison_units: frozenset = frozenset()
    exit_code: int = POISON_EXIT_CODE

    def verdict(self, slot: int, incarnation: int, units_done: int,
                index: int) -> str | None:
        """``'exit'``, ``'wedge'``, or ``None`` for unit ``index`` about
        to run as the worker's ``units_done``-th completed-so-far."""
        if index in self.poison_units:
            return "wedge" if slot in self.wedge_slots else "exit"
        if self.kill_after.get(slot) == units_done and incarnation == slot:
            return "wedge" if slot in self.wedge_slots else "exit"
        return None

    def execute(self, verdict: str | None) -> None:
        """Carry out a verdict inside the worker process."""
        if verdict == "exit":
            os._exit(self.exit_code)
        if verdict == "wedge":
            while True:  # caught by the supervisor's heartbeat deadline
                time.sleep(0.05)


@dataclass(slots=True)
class WorkerHandle:
    """Parent-side state of one live worker incarnation.

    ``lease`` is the lease the worker holds (granted only while idle)
    and ``reported`` how many of its units have come back.  A worker
    crawls its lease in order and reports over an ordered pipe, so the
    units still owed are exactly :attr:`unreported`.

    ``last_lag_s`` is the most recent *heartbeat lag* — how long the
    worker's last message sat in the pipe before the parent drained it
    (receive time minus the worker's monotonic send stamp).  Liveness
    says "the worker spoke recently"; lag says "and the parent is
    keeping up".
    """

    slot: int
    incarnation: int
    proc: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection
    last_seen: float
    lease: Lease | None = None
    reported: int = 0
    exit_code: int | None = None
    last_lag_s: float = 0.0

    @property
    def idle(self) -> bool:
        return self.lease is None

    @property
    def unreported(self) -> tuple[int, ...]:
        """Units of the held lease not yet reported, in crawl order: a
        revocation requeues them, and the first is the unit the worker
        was on when it died (the quarantine suspect)."""
        if self.lease is None:
            return ()
        return self.lease.indices[self.reported:]


class Supervisor:
    """Spawns, watches, reaps, and respawns the scheduler's workers.

    ``worker_entry(slot, incarnation, child_conn)`` is the worker entry
    point (a closure over the unit list — workers inherit it by fork).
    The supervisor owns process lifecycle; the scheduler grants and
    revokes leases, and the supervisor reads a handle's lease only to
    decide whether a silent worker owes it anything.
    ``max_restarts`` bounds replacement spawns across the whole run
    (the initial ``workers`` spawns are free).
    """

    def __init__(self, worker_entry: Callable, *, workers: int,
                 heartbeat_timeout: float, max_restarts: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._entry = worker_entry
        self.workers = workers
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = max_restarts
        self._clock = clock
        self._context = multiprocessing.get_context("fork")
        self._next_incarnation = 0
        self.handles: dict[int, WorkerHandle] = {}  # slot -> live handle
        self.restarts_used = 0
        self.max_lag_s = 0.0

    # -- spawning --------------------------------------------------------

    def _spawn(self, slot: int) -> WorkerHandle:
        incarnation = self._next_incarnation
        self._next_incarnation += 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        proc = self._context.Process(
            target=self._entry, args=(slot, incarnation, child_conn),
            daemon=True)
        proc.start()
        child_conn.close()  # parent keeps only its end
        handle = WorkerHandle(slot=slot, incarnation=incarnation,
                              proc=proc, conn=parent_conn,
                              last_seen=self._clock())
        self.handles[slot] = handle
        from repro.obs import OBS
        OBS.flight.record("worker.spawn", slot=slot,
                          incarnation=incarnation)
        return handle

    def spawn_initial(self) -> list[WorkerHandle]:
        """Fork the first incarnation for every slot."""
        return [self._spawn(slot) for slot in range(self.workers)]

    def respawn(self, slot: int) -> WorkerHandle | None:
        """Fork a replacement for a dead slot, if budget remains."""
        if self.restarts_used >= self.max_restarts:
            return None
        self.restarts_used += 1
        return self._spawn(slot)

    @property
    def incarnations_spawned(self) -> int:
        """Total worker processes forked so far (shard-journal count)."""
        return self._next_incarnation

    # -- watching --------------------------------------------------------

    def note_activity(self, handle: WorkerHandle) -> None:
        handle.last_seen = self._clock()

    def note_heartbeat(self, handle: WorkerHandle,
                       sent_s: float) -> float:
        """Record a stamped heartbeat; returns the observed lag.

        ``sent_s`` is the worker's ``time.monotonic()`` at send time —
        fork children share the parent's CLOCK_MONOTONIC epoch on
        Linux, so receive-minus-send is a real pipe+poll latency.  The
        lag is clamped at zero (a torn or skewed stamp must never
        *extend* a heartbeat deadline).
        """
        now = self._clock()
        handle.last_seen = now
        lag = max(0.0, now - sent_s)
        handle.last_lag_s = lag
        if lag > self.max_lag_s:
            self.max_lag_s = lag
        return lag

    def dead_workers(self) -> list[tuple[WorkerHandle, str]]:
        """Detect (and remove from the live set) every dead worker.

        Returns ``(handle, reason)`` pairs, ``reason`` one of ``"exit"``
        (the process is gone; ``handle.exit_code`` records how) or
        ``"timeout"`` (alive but silent past the heartbeat deadline
        while holding a lease — SIGTERMed here).  Idle workers are
        never timed out: with no lease there is nothing they owe us.

        The handle's pipe is left open: results the worker managed to
        send before dying may still sit in the OS buffer, and the
        scheduler salvages them before closing the connection itself.
        """
        now = self._clock()
        dead: list[tuple[WorkerHandle, str]] = []
        for slot, handle in list(self.handles.items()):
            if not handle.proc.is_alive():
                handle.proc.join()
                handle.exit_code = handle.proc.exitcode
                dead.append((handle, "exit"))
            elif (handle.lease is not None
                  and now - handle.last_seen > self.heartbeat_timeout):
                handle.proc.terminate()
                handle.proc.join()
                handle.exit_code = handle.proc.exitcode
                dead.append((handle, "timeout"))
            else:
                continue
            del self.handles[slot]
        if dead:
            from repro.obs import OBS
            for handle, reason in dead:
                OBS.flight.record(f"worker.{reason}", slot=handle.slot,
                                  incarnation=handle.incarnation,
                                  exit_code=handle.exit_code)
        return dead

    # -- shutdown --------------------------------------------------------

    def shutdown(self, *, stop_message=("stop",)) -> None:
        """Stop every live worker: polite message first, then the axe.

        Always leaves zero children behind — the no-zombie guarantee
        holds on success and failure paths alike.
        """
        for handle in self.handles.values():
            try:
                handle.conn.send(stop_message)
            except (BrokenPipeError, OSError):
                pass  # already dead; reaped below
        for handle in self.handles.values():
            handle.proc.join(timeout=5.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join()
            handle.conn.close()
        self.handles.clear()
