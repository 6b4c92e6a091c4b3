"""Survey crawler: drive the instrumented browser across domain samples.

The paper's methodology (Section 5): visit only the landing page of each
sampled domain with an instrumented Adblock Plus, recording filter
activations.  A :class:`Crawler` visits one :class:`CrawlTarget` at a
time (:meth:`Crawler.visit_target`), producing one :class:`CrawlOutcome`
per domain — success, degraded (succeeded after retries), or a failed
tombstone — so downstream Figure 6–8 aggregations always know their
denominator.  Successful outcomes carry a :class:`CrawlRecord`, the raw
material for every Section 5 table and figure.

The crawler has no batch API: every survey — the Section 5 crawl and
the temporal extension alike — visits its targets through the one crawl
executor, :func:`repro.parallel.scheduler.run_stealing_survey`, which
hands each visit its own derived backoff rng.

Every visit routes through the retry layer
(:mod:`repro.web.resilience`): a :class:`~repro.web.resilience.RetryPolicy`
with seeded backoff jitter, and an optional
:class:`~repro.web.faults.FaultInjector` that injects the failure modes
a live crawl sees.  With no injector the pipeline is a clean
pass-through — a zero-fault crawl produces records identical to the
bare visit loop.

Two engine configurations matter (Figure 6 compares them):

* ``easylist+whitelist`` — ABP's default: EasyList plus Acceptable Ads;
* ``easylist-only`` — the whitelist disabled.

A crawler is bound to one engine, so the survey builds one per
configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.filters.engine import AdblockEngine
from repro.obs import OBS
from repro.web.browser import InstrumentedBrowser, PageVisit
from repro.web.faults import FaultInjector
from repro.web.resilience import (
    OutcomeStatus,
    RetryPolicy,
    SimulatedClock,
    execute_with_policy,
)
from repro.web.sites import SiteProfile, profile_for_domain

__all__ = [
    "CrawlTarget",
    "CrawlRecord",
    "CrawlStatus",
    "CrawlOutcome",
    "CrawlHealth",
    "crawl_health",
    "Crawler",
]

#: A crawl outcome's status is the generic resilience outcome status.
CrawlStatus = OutcomeStatus


@dataclass(frozen=True, slots=True)
class CrawlTarget:
    """One domain to survey."""

    domain: str
    rank: int
    group_index: int = 0  # 0: top-5K, 1: 5K–50K, 2: 50K–100K, 3: 100K–1M
    category: str | None = None


@dataclass(slots=True)
class CrawlRecord:
    """Survey result for one domain."""

    target: CrawlTarget
    visit: PageVisit
    profile: SiteProfile

    @property
    def domain(self) -> str:
        return self.target.domain

    @property
    def rank(self) -> int:
        return self.target.rank

    @property
    def total_matches(self) -> int:
        return len(self.visit.activations)

    @property
    def whitelist_matches(self) -> int:
        return len(self.visit.whitelist_activations)

    @property
    def distinct_whitelist_filters(self) -> set[str]:
        return self.visit.distinct_whitelist_filters

    @property
    def any_activation(self) -> bool:
        return bool(self.visit.activations)


@dataclass(slots=True)
class CrawlOutcome:
    """One target's fate: a record, or a tombstone explaining the loss."""

    target: CrawlTarget
    status: CrawlStatus
    record: CrawlRecord | None = None
    error_class: str | None = None
    attempts: int = 1
    latency_ms: float = 0.0

    @property
    def domain(self) -> str:
        return self.target.domain

    @property
    def ok(self) -> bool:
        return self.record is not None

    @property
    def is_tombstone(self) -> bool:
        return self.record is None


@dataclass(slots=True)
class CrawlHealth:
    """Aggregate crawl telemetry for the crawl-health table."""

    total: int = 0
    succeeded: int = 0
    degraded: int = 0
    failed: int = 0
    total_attempts: int = 0
    retried: int = 0                      # outcomes needing >1 attempt
    total_latency_ms: float = 0.0
    #: Final error class -> tombstone count.
    failure_counts: dict[str, int] = field(default_factory=dict)
    #: Error class recovered from -> degraded-outcome count.
    recovered_counts: dict[str, int] = field(default_factory=dict)
    #: Flat observability snapshot (``repro.obs``) taken when the health
    #: summary was built with an enabled registry; empty otherwise, so
    #: un-instrumented runs render byte-identically to pre-obs output.
    metrics: dict[str, int | float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.succeeded + self.degraded

    @property
    def success_fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.total_latency_ms / self.total if self.total else 0.0


def crawl_health(outcomes: Iterable[CrawlOutcome]) -> CrawlHealth:
    """Summarise a sequence of outcomes (possibly across groups/configs)."""
    health = CrawlHealth()
    for outcome in outcomes:
        health.total += 1
        health.total_attempts += outcome.attempts
        health.total_latency_ms += outcome.latency_ms
        if outcome.attempts > 1:
            health.retried += 1
        if outcome.status is CrawlStatus.SUCCESS:
            health.succeeded += 1
        elif outcome.status is CrawlStatus.DEGRADED:
            health.degraded += 1
            label = outcome.error_class or "unknown"
            health.recovered_counts[label] = (
                health.recovered_counts.get(label, 0) + 1)
        else:
            health.failed += 1
            label = outcome.error_class or "unknown"
            health.failure_counts[label] = (
                health.failure_counts.get(label, 0) + 1)
    if OBS.enabled:
        health.metrics = OBS.registry.flat()
    return health


def _validate_target(target: CrawlTarget) -> None:
    domain = target.domain
    if not isinstance(domain, str) or not domain.strip():
        raise ValueError(
            f"invalid crawl target: empty domain (rank={target.rank!r})")
    if domain != domain.strip():
        raise ValueError(
            f"invalid crawl target: domain {domain!r} has stray whitespace")
    if target.rank < 0:
        raise ValueError(
            f"invalid crawl target {domain!r}: negative rank "
            f"{target.rank}")


class Crawler:
    """A reusable crawler bound to one engine configuration.

    ``profile_factory`` lets callers control how a target becomes a
    :class:`SiteProfile` — the survey uses this to wire explicitly
    whitelisted publishers to their restricted filters.  The default
    factory is :func:`repro.web.sites.profile_for_domain`.

    ``fault_injector`` (optional) subjects every visit to a
    :class:`~repro.web.faults.FaultPlan`; ``retry_policy`` governs how
    hard each target is retried.  The crawler shares the injector's
    simulated clock when one is present so backoff sleeps and injected
    latencies add up on one clock.  The crawler holds no rng: each
    visit is handed its own.
    """

    def __init__(self, engine: AdblockEngine, *,
                 profile_factory=None,
                 retry_policy: RetryPolicy | None = None,
                 fault_injector: FaultInjector | None = None) -> None:
        self.browser = InstrumentedBrowser(engine)
        self._profile_factory = profile_factory or (
            lambda target: profile_for_domain(
                target.domain, target.rank,
                group_index=target.group_index,
                category=target.category,
            ))
        self.policy = retry_policy or RetryPolicy()
        self.injector = fault_injector
        self.clock = (fault_injector.clock if fault_injector is not None
                      else SimulatedClock())

    def visit_target(self, target: CrawlTarget, *,
                     rng: random.Random,
                     unit: int | None = None) -> CrawlOutcome:
        """Visit one (validated) target through the retry pipeline.

        ``rng`` draws this visit's backoff jitter and nothing else.  The
        survey executor (:mod:`repro.parallel.scheduler`) passes a
        per-target derived rng so the visit's result is independent of
        every other target's execution, plus the unit's global index as
        ``unit`` — recorded as a span attribute so a stitched
        cross-worker trace names every visit by its position in the
        global unit order.

        Never raises for network-shaped trouble — a failed domain
        becomes a tombstone.  A malformed target (empty domain, negative
        rank) raises :class:`ValueError`: it is a caller bug, not
        weather.
        """
        _validate_target(target)
        profile = self._profile_factory(target)

        def attempt(_n: int) -> PageVisit:
            if self.injector is not None:
                return self.injector.run(
                    target.domain,
                    lambda: self.browser.visit(profile),
                    group_index=target.group_index)
            return self.browser.visit(profile)

        if OBS.enabled:
            attrs: dict[str, object] = {"domain": target.domain,
                                        "group": target.group_index}
            if unit is not None:
                attrs["unit"] = unit
            with OBS.tracer.span("web.crawl.visit", **attrs):
                call = execute_with_policy(
                    attempt, policy=self.policy, clock=self.clock,
                    rng=rng)
            reg = OBS.registry
            reg.counter("web.crawl.outcomes",
                        status=call.status.value).inc()
            reg.counter("web.crawl.attempts").inc(call.attempts)
            if call.attempts > 1:
                reg.counter("web.crawl.retries").inc(call.attempts - 1)
            reg.histogram("web.crawl.latency_ms").observe(
                call.elapsed * 1000.0)
        else:
            call = execute_with_policy(
                attempt, policy=self.policy, clock=self.clock,
                rng=rng)
        record = None
        if call.value is not None:
            record = CrawlRecord(target=target, visit=call.value,
                                 profile=profile)
        return CrawlOutcome(target=target, status=call.status,
                            record=record, error_class=call.error_class,
                            attempts=call.attempts,
                            latency_ms=call.elapsed * 1000.0)
