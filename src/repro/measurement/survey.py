"""The Section 5 site survey: engines, crawls, and raw results.

This is the reproduction of "we instrumented Adblock Plus to record
filter activations and used Selenium to visit each domain".  Given a
generated whitelist history, the survey:

1. builds the synthetic EasyList and extracts the tip whitelist, once;
2. assembles two engine configurations over those same two lists — the
   ABP default (EasyList + Acceptable Ads) and EasyList-only (for
   Figure 6's comparison panel);
3. materialises the four sample groups;
4. crawls every target in each configuration, wiring explicitly
   whitelisted publishers to their restricted filters via the
   history's publisher directory;
5. returns a :class:`SurveyResult` that the statistics module turns
   into Table 4 and Figures 6–8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import FilterList
from repro.measurement.easylist import build_easylist
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.history.generator import WhitelistHistory
from repro.measurement.samples import SampleGroup, build_samples
from repro.parallel.leases import DEFAULT_LEASE_SIZE
from repro.parallel.scheduler import run_stealing_survey
from repro.state.checkpoint import Checkpoint
from repro.web.crawler import (
    Crawler,
    CrawlHealth,
    CrawlOutcome,
    CrawlRecord,
    CrawlTarget,
    crawl_health,
)
from repro.web.faults import FaultInjector, FaultPlan
from repro.web.resilience import RetryPolicy
from repro.web.sites import SiteProfile, profile_for_domain

__all__ = ["SurveyConfig", "SurveyResult", "run_survey",
           "WHITELIST_NAME", "EASYLIST_NAME"]

WHITELIST_NAME = "exceptionrules"
EASYLIST_NAME = "easylist"


@dataclass(slots=True)
class SurveyConfig:
    """Knobs for survey size (paper-scale by default) and resilience.

    ``fault_rate`` > 0 subjects every visit to an injected
    :class:`~repro.web.faults.FaultPlan` seeded by ``fault_seed``;
    ``max_retries`` is the number of *re*-attempts per target beyond
    the first (so ``max_retries=2`` means up to three visits).  At the
    default ``fault_rate=0.0`` the resilient pipeline is a clean
    pass-through and results match the bare crawler exactly.

    Every target is crawled *shared-nothing* by
    :func:`repro.parallel.scheduler.run_stealing_survey`: it gets a
    derived rng and a clock rewound to zero, so results are
    byte-identical for every ``workers`` value, and checkpoints resume
    across worker-count changes.  ``workers`` ``None`` (default) or 1 crawls in-process;
    N >= 2 forks N supervised workers.  ``lease_size`` (the largest
    lease) and ``max_worker_restarts`` tune the forked scheduler.
    ``steal_crash_injector`` is the deterministic worker-death harness
    (tests/benchmarks); like ``workers`` it never enters the
    fingerprint — a kill schedule is not a result.

    ``scheduler`` accepts only ``"steal"``, the one executor; the
    field stays so existing callers that name it keep working.
    """

    top_n: int = 5_000
    stratum_size: int = 1_000
    with_whitelist: bool = True
    compare_without_whitelist: bool = True
    fault_rate: float = 0.0
    fault_seed: int = 0
    max_retries: int = 2
    workers: int | None = None
    scheduler: str = "steal"
    lease_size: int = DEFAULT_LEASE_SIZE
    max_worker_restarts: int = 4
    steal_crash_injector: object | None = None


@dataclass
class SurveyResult:
    """Raw survey output for all groups and both configurations.

    ``records`` holds only successful crawls (what the tables and
    figures aggregate); ``outcomes`` holds every target's
    :class:`~repro.web.crawler.CrawlOutcome` including failure
    tombstones, so the denominator of every downstream statistic is
    explicit.
    """

    groups: list[SampleGroup]
    records: dict[str, list[CrawlRecord]] = field(default_factory=dict)
    records_easylist_only: dict[str, list[CrawlRecord]] = field(
        default_factory=dict)
    outcomes: dict[str, list[CrawlOutcome]] = field(default_factory=dict)
    outcomes_easylist_only: dict[str, list[CrawlOutcome]] = field(
        default_factory=dict)
    whitelist: FilterList | None = None
    easylist: FilterList | None = None

    @property
    def top5k(self) -> list[CrawlRecord]:
        return self.records["top-5k"]

    def all_records(self) -> list[CrawlRecord]:
        return [record for group in self.groups
                for record in self.records[group.name]]

    def all_outcomes(self) -> list[CrawlOutcome]:
        """Every outcome from both engine configurations."""
        return [outcome
                for by_group in (self.outcomes,
                                 self.outcomes_easylist_only)
                for outcomes in by_group.values()
                for outcome in outcomes]

    def crawl_health(self) -> CrawlHealth:
        """Aggregate health across both configurations' crawls."""
        return crawl_health(self.all_outcomes())


def build_filter_lists(history: "WhitelistHistory"
                       ) -> tuple[FilterList, FilterList]:
    """Build the synthetic EasyList and parse the history's tip whitelist."""
    easylist = build_easylist(name=EASYLIST_NAME)
    whitelist = history.tip_filter_list()
    whitelist.name = WHITELIST_NAME
    return easylist, whitelist


def build_engines(history: "WhitelistHistory",
                  *, with_whitelist: bool = True,
                  lists: tuple[FilterList, FilterList] | None = None
                  ) -> tuple[AdblockEngine, FilterList, FilterList]:
    """Build an engine (plus its two lists) in the requested config.

    ``lists`` is an ``(easylist, whitelist)`` pair from
    :func:`build_filter_lists` to subscribe to instead of building the
    lists again; engines built from one pair share its filter objects.
    """
    easylist, whitelist = lists or build_filter_lists(history)
    engine = AdblockEngine(record=True)
    engine.subscribe(easylist)
    if with_whitelist:
        engine.subscribe(whitelist)
    # Freeze immediately: the survey never re-subscribes, and freezing
    # compiles the keyword indexes (keyword set + prebuilt bucket
    # tuples) so every probe — serial or forked worker — takes the
    # compiled hot path.
    engine.freeze()
    return engine, easylist, whitelist


def make_profile_factory(history: "WhitelistHistory"):
    """Profile factory that wires whitelisted publishers to their filters.

    A surveyed domain whose FQD (or ``www.`` variant) appears in the
    history's publisher directory gets its restricted filters attached
    and the generic publisher ad server added to its network stack, so
    the filters can actually activate during the crawl.
    """
    directory = history.publisher_directory

    def factory(target: CrawlTarget) -> SiteProfile:
        profile = profile_for_domain(
            target.domain, target.rank,
            group_index=target.group_index,
            category=target.category,
        )
        if profile.is_whitelisted_publisher or profile.inert:
            return profile
        filters: list[str] = []
        for fqd in (target.domain, f"www.{target.domain}"):
            filters.extend(directory.get(fqd, ()))
        if not filters:
            return profile
        networks = list(profile.networks)
        if "generic-publisher-adserv" not in networks:
            networks.append("generic-publisher-adserv")
        return SiteProfile(
            domain=profile.domain,
            rank=profile.rank,
            category=profile.category,
            networks=networks,
            whitelist_filters=tuple(dict.fromkeys(filters)),
            first_party_ads=profile.first_party_ads,
            ad_intensity=profile.ad_intensity,
            inert=False,
            cookie_sensitive=profile.cookie_sensitive,
            adblock_detecting=profile.adblock_detecting,
        )

    return factory


def _survey_fingerprint(config: SurveyConfig, engine_config: str) -> dict:
    """The scope configuration a survey checkpoint is pinned to.

    The ``execution`` marker refuses checkpoints written by the retired
    serial loop, which drew backoff jitter from one shared rng and so
    would not resume into the same results.  The worker *count* is
    deliberately absent — results are independent of it, so a resume
    may change it freely.
    """
    return {"engine_config": engine_config,
            "top_n": config.top_n,
            "stratum_size": config.stratum_size,
            "with_whitelist": config.with_whitelist,
            "fault_rate": config.fault_rate,
            "fault_seed": config.fault_seed,
            "max_retries": config.max_retries,
            "execution": "shared-nothing"}


def run_survey(history: "WhitelistHistory",
               config: SurveyConfig | None = None, *,
               checkpoint: Checkpoint | None = None) -> SurveyResult:
    """Run the full Section 5 survey.

    At paper scale (8,000 visits x 2 configurations) this takes a couple
    of minutes; tests shrink ``config``.

    With a :class:`~repro.state.checkpoint.Checkpoint`, every crawled
    target is journaled as a completed unit of work and a resumed run
    skips (and byte-identically restores) everything the crashed run
    already finished.  The checkpoint is caller-owned: the caller
    closes it, and crash-shaped exceptions propagate.
    """
    config = config or SurveyConfig()
    if config.scheduler != "steal":
        raise ValueError(f"unknown scheduler {config.scheduler!r}; "
                         f"expected 'steal'")
    tracer = OBS.tracer
    with tracer.span("survey.run", top_n=config.top_n,
                     stratum_size=config.stratum_size,
                     fault_rate=config.fault_rate):
        with tracer.span("survey.build_samples"):
            groups = build_samples(history.population.ranking,
                                   top_n=config.top_n,
                                   stratum_size=config.stratum_size)
        factory = make_profile_factory(history)

        with tracer.span("survey.build_engines",
                         config="easylist+whitelist"):
            engine, easylist, whitelist = build_engines(
                history, with_whitelist=config.with_whitelist)
        result = SurveyResult(groups=groups, whitelist=whitelist,
                              easylist=easylist)

        def make_crawler(an_engine: AdblockEngine) -> Crawler:
            # Each configuration gets its own fault plan seeded
            # identically, so both crawls see the same faults on the same
            # domains and the Figure 6 comparison stays apples-to-apples.
            # Backoff jitter never comes from here: the executor derives
            # an rng per unit.
            injector = None
            if config.fault_rate > 0.0:
                injector = FaultInjector(FaultPlan.uniform(
                    config.fault_rate, seed=config.fault_seed))
            return Crawler(an_engine, profile_factory=factory,
                           retry_policy=RetryPolicy(
                               max_attempts=config.max_retries + 1),
                           fault_injector=injector)

        if OBS.enabled:
            OBS.registry.gauge("measurement.survey.groups").set(
                len(groups))
            OBS.registry.gauge("measurement.survey.targets").set(
                sum(len(g.targets) for g in groups))

        def crawl_config(crawler_factory, engine_config: str,
                         outcomes_by_group: dict, records_by_group: dict
                         ) -> None:
            # No ``workers`` attr: the merged trace is defined to be
            # byte-identical for every worker count, so execution
            # placement must not leak into span attributes.
            with tracer.span("survey.crawl.parallel", config=engine_config):
                surveyed = run_stealing_survey(
                    groups, crawler_factory=crawler_factory,
                    workers=config.workers or 1,
                    jitter_seed=config.fault_seed,
                    checkpoint=checkpoint,
                    scope=f"survey/{engine_config}",
                    scope_config=_survey_fingerprint(config, engine_config),
                    lease_size=config.lease_size,
                    max_worker_restarts=config.max_worker_restarts,
                    crash_injector=config.steal_crash_injector)
            for group in groups:
                outcomes = surveyed[group.name]
                outcomes_by_group[group.name] = outcomes
                records_by_group[group.name] = [
                    o.record for o in outcomes if o.record is not None]

        crawl_config(lambda: make_crawler(engine), "easylist+whitelist",
                     result.outcomes, result.records)

        if config.compare_without_whitelist:
            with tracer.span("survey.build_engines",
                             config="easylist-only"):
                engine_plain = build_engines(
                    history, with_whitelist=False,
                    lists=(easylist, whitelist))[0]
            crawl_config(lambda: make_crawler(engine_plain),
                         "easylist-only",
                         result.outcomes_easylist_only,
                         result.records_easylist_only)

    return result
