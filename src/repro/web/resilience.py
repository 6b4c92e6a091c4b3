"""Retry, timeout-budget, and circuit-breaker machinery for the crawl.

The Section 5 survey hammers thousands of hosts; at that scale failures
are the norm, not the exception.  This module is the composable
resilience layer every survey browser visit routes through (the
Table 3 zone scan fetches with a bare :class:`~repro.web.http.HttpClient`
and does not use it):

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  deterministic seeded jitter, gated by an error-class predicate;
* :class:`Deadline` — a per-call simulated-time budget;
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine, one per registered domain (:class:`BreakerRegistry`), so a
  host that keeps failing stops eating retry budget;
* :func:`execute_with_policy` — the retry loop itself, shared by the
  crawler and :class:`ResilientClient`;
* :class:`ResilientClient` — an :class:`~repro.web.http.HttpClient`
  wrapper returning :class:`FetchOutcome` instead of raising.

Time is simulated (:class:`SimulatedClock`): backoff sleeps and injected
latencies advance a deterministic clock, so a million-visit crawl with
ten-second read timeouts still *runs* in milliseconds and two runs with
the same seed produce identical latency figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, TypeVar

from repro.obs import OBS
from repro.web.http import HttpClient, HttpResponse, ServerFault
from repro.web.url import URL, parse_url, registered_domain

__all__ = [
    "SimulatedClock",
    "OutcomeStatus",
    "classify_error",
    "RetryPolicy",
    "Deadline",
    "BreakerState",
    "CircuitBreaker",
    "BreakerRegistry",
    "CallOutcome",
    "execute_with_policy",
    "FetchOutcome",
    "ResilientClient",
    "DEFAULT_RETRYABLE_CLASSES",
]

_T = TypeVar("_T")


class SimulatedClock:
    """A deterministic monotonic clock the whole pipeline shares."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds

    def rewind(self, to: float = 0.0) -> None:
        """Reset the clock to an absolute position.

        Elapsed times are float *differences*, and ``(t + d) - t`` only
        equals ``d`` exactly when ``t`` is the same — so shared-nothing
        execution (:mod:`repro.parallel`) rewinds to zero before every
        unit to make each unit's latencies independent of how much
        simulated time earlier units on the same worker consumed.
        """
        self._now = float(to)

    #: Backoff code calls ``sleep``; on a simulated clock it just advances.
    sleep = advance


class OutcomeStatus(Enum):
    """How one resilient call ended."""

    SUCCESS = "success"     # first attempt succeeded
    DEGRADED = "degraded"   # succeeded, but only after retries
    FAILED = "failed"       # every attempt failed (tombstone)


def classify_error(exc: BaseException) -> str:
    """Map an exception to its error-class label.

    Taxonomy exceptions carry ``error_class`` themselves; anything else
    is bucketed coarsely so the crawl-health table never loses a
    failure to an unlabeled exception.
    """
    label = getattr(exc, "error_class", None)
    if label:
        return label
    if isinstance(exc, ValueError):
        return "invalid-target"
    return "unexpected"


#: Transient classes worth retrying; config errors (redirect loops,
#: invalid targets) fail fast.
DEFAULT_RETRYABLE_CLASSES = frozenset({
    "dns",
    "connect-timeout",
    "read-timeout",
    "server-error",
    "truncated-body",
    "transport",
})


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter."""

    max_attempts: int = 3
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.25
    retryable_classes: frozenset[str] = DEFAULT_RETRYABLE_CLASSES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def is_retryable(self, error_class: str) -> bool:
        return error_class in self.retryable_classes

    def backoff_delay(self, attempt: int,
                      rng: random.Random | None = None) -> float:
        """Delay before attempt ``attempt + 1`` (``attempt`` is 1-based).

        Jitter is a symmetric +/- ``jitter`` fraction drawn from ``rng``
        — pass the pipeline's seeded ``random.Random`` to keep runs
        reproducible.
        """
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 1))
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(slots=True)
class Deadline:
    """A wall-clock budget for one call, on the simulated clock."""

    clock: SimulatedClock
    expires_at: float

    @classmethod
    def after(cls, clock: SimulatedClock, budget: float) -> "Deadline":
        return cls(clock=clock, expires_at=clock.now() + budget)

    def remaining(self) -> float:
        return max(0.0, self.expires_at - self.clock.now())

    @property
    def expired(self) -> bool:
        return self.clock.now() >= self.expires_at


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed / open / half-open breaker for one domain.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``cooldown`` simulated seconds one probe is let through
    (half-open).  A successful probe closes the circuit, a failed one
    re-opens it for another cooldown.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 30.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.open_count = 0      # times the circuit tripped (telemetry)

    def allow(self, now: float) -> bool:
        """May a call proceed at simulated time ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                if OBS.enabled:
                    OBS.registry.counter("web.breaker.transitions",
                                         to="half-open").inc()
                return True
            return False
        # HALF_OPEN: one probe is already in flight per allow() call;
        # further calls wait for its verdict.
        return False

    def record_success(self) -> None:
        if self.state is not BreakerState.CLOSED and OBS.enabled:
            OBS.registry.counter("web.breaker.transitions",
                                 to="closed").inc()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.open_count += 1
        self.consecutive_failures = 0
        if OBS.enabled:
            OBS.registry.counter("web.breaker.transitions",
                                 to="open").inc()


class BreakerRegistry:
    """Per-domain breakers, created lazily with shared parameters."""

    def __init__(self, failure_threshold: int = 5,
                 cooldown: float = 30.0) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, domain: str) -> CircuitBreaker:
        key = registered_domain(domain)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(self.failure_threshold, self.cooldown)
            self._breakers[key] = breaker
        return breaker

    def open_count(self) -> int:
        return sum(b.open_count for b in self._breakers.values())

    def states(self) -> dict[str, BreakerState]:
        return {domain: b.state for domain, b in self._breakers.items()}


@dataclass(slots=True)
class CallOutcome(Generic[_T]):
    """Result of :func:`execute_with_policy` — success or tombstone."""

    value: _T | None
    status: OutcomeStatus
    attempts: int
    #: Last failure's class; set even for DEGRADED outcomes (the fault
    #: the call recovered from), ``None`` for clean successes.
    error_class: str | None
    elapsed: float
    breaker_open: bool = False


def execute_with_policy(
    attempt_fn: Callable[[int], _T],
    *,
    policy: RetryPolicy,
    clock: SimulatedClock,
    rng: random.Random | None = None,
    breaker: CircuitBreaker | None = None,
    deadline: Deadline | None = None,
    classify: Callable[[BaseException], str] = classify_error,
) -> CallOutcome[_T]:
    """The shared retry loop: attempts, backoff, breaker, deadline.

    ``attempt_fn`` receives the 1-based attempt number and either
    returns a value or raises.  The loop never re-raises — every path
    ends in a :class:`CallOutcome`, which is what lets the crawler emit
    tombstones instead of dying mid-survey.
    """
    start = clock.now()
    if breaker is not None and not breaker.allow(clock.now()):
        return CallOutcome(value=None, status=OutcomeStatus.FAILED,
                           attempts=0, error_class="circuit-open",
                           elapsed=0.0, breaker_open=True)
    attempts = 0
    last_error: str | None = None
    while True:
        attempts += 1
        try:
            value = attempt_fn(attempts)
        except Exception as exc:
            last_error = classify(exc)
            if breaker is not None:
                breaker.record_failure(clock.now())
            out_of_attempts = attempts >= policy.max_attempts
            if out_of_attempts or not policy.is_retryable(last_error):
                return CallOutcome(value=None,
                                   status=OutcomeStatus.FAILED,
                                   attempts=attempts,
                                   error_class=last_error,
                                   elapsed=clock.now() - start)
            if deadline is not None and deadline.expired:
                return CallOutcome(value=None,
                                   status=OutcomeStatus.FAILED,
                                   attempts=attempts,
                                   error_class="deadline-exceeded",
                                   elapsed=clock.now() - start)
            delay = policy.backoff_delay(attempts, rng)
            if OBS.enabled:
                reg = OBS.registry
                reg.counter("web.retry.backoff_sleeps").inc()
                reg.counter("web.retry.failures",
                            error_class=last_error).inc()
                reg.histogram("web.retry.backoff_delay_ms").observe(
                    delay * 1000.0)
            clock.sleep(delay)
            continue
        if breaker is not None:
            breaker.record_success()
        status = (OutcomeStatus.SUCCESS if attempts == 1
                  else OutcomeStatus.DEGRADED)
        return CallOutcome(value=value, status=status, attempts=attempts,
                           error_class=last_error,
                           elapsed=clock.now() - start)


@dataclass(slots=True)
class FetchOutcome:
    """One resilient HTTP fetch: response or tombstone, never a raise."""

    url: str
    response: HttpResponse | None
    status: OutcomeStatus
    attempts: int
    error_class: str | None
    elapsed: float
    breaker_open: bool = False

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.ok


class ResilientClient:
    """Retry/backoff/breaker wrapper around :class:`HttpClient`.

    5xx responses count as retryable failures (raised internally as
    :class:`ServerFault`); 4xx responses are returned as-is — they are
    the server's answer, not a transport loss.  ``get`` never raises
    for network-shaped trouble: it returns a :class:`FetchOutcome`
    tombstone so scanners can count what they lost.
    """

    def __init__(
        self,
        client: HttpClient,
        *,
        policy: RetryPolicy | None = None,
        clock: SimulatedClock | None = None,
        rng: random.Random | None = None,
        breakers: BreakerRegistry | None = None,
        deadline_budget: float | None = None,
    ) -> None:
        self.client = client
        self.policy = policy or RetryPolicy()
        self.clock = clock or SimulatedClock()
        self.rng = rng
        self.breakers = breakers or BreakerRegistry()
        self.deadline_budget = deadline_budget

    def get(self, url: str | URL, **kwargs) -> FetchOutcome:
        target = parse_url(url) if isinstance(url, str) else url
        breaker = self.breakers.get(target.host)
        deadline = (Deadline.after(self.clock, self.deadline_budget)
                    if self.deadline_budget is not None else None)

        def attempt(_n: int) -> HttpResponse:
            response = self.client.get(target, **kwargs)
            if 500 <= response.status < 600:
                raise ServerFault(
                    f"HTTP {response.status} from {target.host}")
            return response

        outcome = execute_with_policy(
            attempt, policy=self.policy, clock=self.clock, rng=self.rng,
            breaker=breaker, deadline=deadline)
        return FetchOutcome(url=str(target), response=outcome.value,
                            status=outcome.status,
                            attempts=outcome.attempts,
                            error_class=outcome.error_class,
                            elapsed=outcome.elapsed,
                            breaker_open=outcome.breaker_open)
