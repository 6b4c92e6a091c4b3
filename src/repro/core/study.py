"""The end-to-end study: one object that runs everything the paper ran.

:class:`AcceptableAdsStudy` is the library's headline API.  It wires the
substrates together in the paper's order:

1. reconstruct the whitelist history (Section 4.1);
2. classify the tip whitelist's scope (Section 4.2, Figure 4, Table 2);
3. scan the parking zone for sitekey domains (Section 4.2.3, Table 3);
4. run the site survey over the Alexa samples (Section 5, Table 4,
   Figures 6–8);
5. run the user-perception survey (Section 6, Figure 9);
6. mine undocumented A-filters (Section 7);
7. audit hygiene and assemble the transparency report (Section 8).

Every stage is cached on the instance, deterministic in the study seed,
and available piecemeal (benchmarks regenerate one table each).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.filters.classify import ScopeReport, classify_whitelist
from repro.filters.filterlist import FilterList
from repro.filters.hygiene import HygieneReport, audit
from repro.history.afilters import AFilterReport, mine_a_filters
from repro.history.analysis import (
    Cadence,
    GrowthPoint,
    YearActivity,
    growth_series,
    update_cadence,
    yearly_activity,
)
from repro.history.generator import WhitelistHistory, generate_history
from repro.measurement.survey import SurveyConfig, SurveyResult, run_survey
from repro.perception.survey import PerceptionResult, run_perception_survey
from repro.sitekey.parking import (
    DEFAULT_SCALE_DIVISOR,
    ScanResult,
    ZoneScanner,
    synthesize_zone,
)
from repro.state.checkpoint import Checkpoint

__all__ = ["StudyConfig", "AcceptableAdsStudy"]


@dataclass(slots=True)
class StudyConfig:
    """Scale and determinism knobs for a full study run.

    ``checkpoint`` (optional, caller-owned) journals the site survey,
    so a crashed run resumes from its last crawled target instead of
    starting over (see :mod:`repro.state`).  The history is a pure
    function of ``(seed, key_bits)`` and is regenerated on resume."""

    seed: int = 2015
    key_bits: int = 512
    survey: SurveyConfig = field(default_factory=SurveyConfig)
    zone_scale_divisor: int = DEFAULT_SCALE_DIVISOR
    zone_noise_domains: int = 2_000
    perception_respondents: int = 305
    checkpoint: Checkpoint | None = None


class AcceptableAdsStudy:
    """Run (and cache) every component of the reproduction.

    >>> study = AcceptableAdsStudy()
    >>> study.table1()[-1].filters_added     # doctest: +SKIP
    1227
    """

    def __init__(self, config: StudyConfig | None = None) -> None:
        self.config = config or StudyConfig()

    # -- Section 4.1: history ------------------------------------------

    @cached_property
    def history(self) -> WhitelistHistory:
        return generate_history(seed=self.config.seed,
                                key_bits=self.config.key_bits)

    @cached_property
    def whitelist(self) -> FilterList:
        return self.history.tip_filter_list()

    def table1(self) -> list[YearActivity]:
        return yearly_activity(self.history.repository)

    def figure3(self) -> list[GrowthPoint]:
        return growth_series(self.history.repository)

    def cadence(self) -> Cadence:
        return update_cadence(self.history.repository)

    # -- Section 4.2: scope ---------------------------------------------

    @cached_property
    def scope(self) -> ScopeReport:
        return classify_whitelist(self.whitelist)

    # -- Section 4.2.3: parking / sitekeys -------------------------------

    @cached_property
    def parking_scan(self) -> dict[str, ScanResult]:
        zone = synthesize_zone(
            scale_divisor=self.config.zone_scale_divisor,
            noise_domains=self.config.zone_noise_domains,
            seed=self.config.seed,
        )
        scanner = ZoneScanner(key_bits=self.config.key_bits)
        return scanner.scan(zone)

    # -- Section 5: site survey -------------------------------------------

    @cached_property
    def site_survey(self) -> SurveyResult:
        return run_survey(self.history, self.config.survey,
                          checkpoint=self.config.checkpoint)

    def crawl_health(self):
        """Crawl telemetry for the survey: the resilience layer's view.

        Fault injection and retry depth are configured on
        ``config.survey`` (``fault_rate`` / ``fault_seed`` /
        ``max_retries``); with the defaults every visit succeeds on the
        first attempt and this is an all-success report.
        """
        return self.site_survey.crawl_health()

    # -- Section 6: perception ---------------------------------------------

    @cached_property
    def perception(self) -> PerceptionResult:
        return run_perception_survey(
            respondents=self.config.perception_respondents,
            seed=self.config.seed,
        )

    # -- Section 7: A-filters -----------------------------------------------

    @cached_property
    def a_filters(self) -> AFilterReport:
        return mine_a_filters(self.history.repository)

    # -- Section 8: hygiene ---------------------------------------------------

    @cached_property
    def hygiene(self) -> HygieneReport:
        return audit(self.whitelist)

    def transparency_report(self) -> str:
        from repro.core.transparency import build_transparency_report

        return build_transparency_report(self)
