"""Admission control: bounded queueing, deadline-aware load shedding.

A daemon that accepts every connection melts down by queueing: latency
grows without bound, clients time out and retry, and the retry storm
finishes the job.  The admission controller makes overload *explicit*
instead:

* at most ``max_inflight`` requests execute concurrently;
* at most ``max_queue`` more may *wait* for a slot — the queue is a
  hard bound, never a hope;
* a waiter whose deadline will expire before it can plausibly be
  served is shed immediately (deadline-aware shedding), and a waiter
  whose deadline expires while queued is shed when it wakes;
* once draining starts, nothing new is admitted.

Every refusal carries a machine-readable reason and a ``Retry-After``
estimate, so clients back off instead of hammering.  The controller is
thread-safe (the daemon's handler threads all go through one instance)
and instrumented: ``serve.admission.*`` counters and queue-depth /
inflight gauges feed the ``/metricz`` endpoint.

>>> controller = AdmissionController(max_inflight=1, max_queue=0)
>>> first = controller.admit()
>>> first.admitted
True
>>> second = controller.admit()          # no slot, no queue room
>>> second.admitted, second.reason
(False, 'queue-full')
>>> controller.release(first)
>>> controller.admit().admitted
True
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.obs import OBS

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """The controller's explicit answer to one admission request."""

    admitted: bool
    #: ``None`` when admitted; otherwise ``queue-full``,
    #: ``deadline-hopeless``, ``deadline-in-queue``, or ``draining``.
    reason: str | None = None
    #: Seconds a refused client should wait before retrying.
    retry_after: float = 0.0
    #: Seconds spent waiting in the queue (admitted requests only).
    queued_for: float = 0.0
    #: True when the refusal is a lifecycle state, not overload: the
    #: daemon maps it to 503 instead of 429.
    draining: bool = False


class AdmissionController:
    """Bounded concurrency + bounded queue + deadline-aware shedding."""

    def __init__(self, *, max_inflight: int = 8, max_queue: int = 32,
                 clock=time.monotonic) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._clock = clock
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._inflight = 0
        self._queued = 0
        self._draining = False
        #: Exponential moving average of service time, feeding the
        #: Retry-After estimate.  Seeded pessimistically at 50ms.
        self._avg_service_s = 0.05

    # -- introspection -------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def draining(self) -> bool:
        return self._draining

    def _retry_after(self) -> float:
        """How long until a queue slot plausibly frees up."""
        backlog = self._queued + max(0, self._inflight)
        return max(0.05, backlog * self._avg_service_s)

    def _shed(self, reason: str, *, draining: bool = False
              ) -> AdmissionDecision:
        if OBS.enabled:
            OBS.registry.counter("serve.admission.shed",
                                 reason=reason).inc()
        OBS.flight.record("serve.shed", reason=reason,
                          draining=draining, inflight=self._inflight,
                          queued=self._queued)
        return AdmissionDecision(admitted=False, reason=reason,
                                 retry_after=self._retry_after(),
                                 draining=draining)

    # -- the admission path --------------------------------------------

    def admit(self, deadline_s: float | None = None) -> AdmissionDecision:
        """Try to admit one request; block (bounded) for a slot.

        ``deadline_s`` is the request's absolute deadline on this
        controller's clock.  A request that cannot be served before its
        deadline is shed rather than queued — queueing doomed work just
        steals capacity from work that could still succeed.
        """
        with self._lock:
            entered = self._clock()
            if self._draining:
                return self._shed("draining", draining=True)
            while self._inflight >= self.max_inflight:
                if self._queued >= self.max_queue:
                    return self._shed("queue-full")
                if deadline_s is not None:
                    remaining = deadline_s - self._clock()
                    if remaining <= 0.0:
                        return self._shed("deadline-hopeless")
                else:
                    remaining = None
                self._queued += 1
                self._set_gauges()
                try:
                    # Bounded wait: a missing deadline still wakes up
                    # periodically so drain can flush the queue, and a
                    # far deadline (1e300 ms) must not overflow the
                    # lock's timeout.
                    self._slot_freed.wait(
                        timeout=min(remaining, threading.TIMEOUT_MAX)
                        if remaining is not None else 0.1)
                finally:
                    self._queued -= 1
                if self._draining:
                    return self._shed("draining", draining=True)
                if deadline_s is not None \
                        and self._clock() >= deadline_s:
                    return self._shed("deadline-in-queue")
            self._inflight += 1
            self._set_gauges()
            if OBS.enabled:
                OBS.registry.counter("serve.admission.admitted").inc()
            return AdmissionDecision(admitted=True,
                                     queued_for=self._clock() - entered)

    def release(self, decision: AdmissionDecision,
                service_s: float | None = None) -> None:
        """Return an admitted request's slot; update the EMA."""
        if not decision.admitted:
            return
        with self._lock:
            self._inflight -= 1
            if service_s is not None:
                self._avg_service_s = (0.8 * self._avg_service_s
                                       + 0.2 * max(0.0, service_s))
            self._set_gauges()
            self._slot_freed.notify()

    def _set_gauges(self) -> None:
        if OBS.enabled:
            OBS.registry.gauge("serve.admission.inflight").set(
                self._inflight)
            OBS.registry.gauge("serve.admission.queue_depth").set(
                self._queued)

    # -- drain ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; wake every queued waiter so it sheds."""
        with self._lock:
            self._draining = True
            self._slot_freed.notify_all()

    def drained(self, timeout_s: float) -> bool:
        """Wait for in-flight work to finish; True when fully drained."""
        deadline = self._clock() + timeout_s
        with self._lock:
            while self._inflight > 0:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                self._slot_freed.wait(timeout=min(remaining, 0.05))
            return True
