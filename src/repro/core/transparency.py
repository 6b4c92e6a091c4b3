"""Section 8: the transparency report.

The paper closes with five recommendations for the Acceptable Ads
program.  This module turns a completed study into the evidence base
for each one — a machine-checked audit a list maintainer (or watchdog)
could run against any whitelist revision:

1. *Disclose financial entanglements* — we can't see contracts, but we
   can enumerate which whitelisted publishers are large enough that the
   "free for small sites" policy can't explain their presence;
2. *Document all modifications* — undocumented (A-filter) groups and
   commits lacking forum links;
3. *Avoid overly general filters* — unrestricted and sitekey filters
   whose scope cannot be determined from the list;
4. *Identify whitelisted advertisements* — surfaced as engine
   instrumentation (the paper asks the extension to show it; our
   engine records it);
5. *Practice good whitelist hygiene* — duplicates, malformed and
   truncated filters, deprecated options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.study import AcceptableAdsStudy

__all__ = ["TransparencyFindings", "collect_findings",
           "build_transparency_report"]

_LARGE_SITE_RANK = 1_000


@dataclass(frozen=True)
class TransparencyFindings:
    """The quantified Section 8 evidence."""

    undocumented_groups: int
    undocumented_filters: int
    unrestricted_filters: int
    sitekey_filters: int
    sitekey_domains_lower_bound: int
    duplicate_filters: int
    malformed_filters: int
    truncated_filters: int
    deprecated_option_uses: int
    large_whitelisted_publishers: tuple[str, ...]

    @property
    def opaque_scope_filters(self) -> int:
        """Filters whose full scope a user cannot determine."""
        return self.unrestricted_filters + self.sitekey_filters


def collect_findings(study: "AcceptableAdsStudy") -> TransparencyFindings:
    """Quantify every Section 8 concern from a completed study."""
    scope = study.scope
    hygiene = study.hygiene
    a_report = study.a_filters
    ranking = study.history.population.ranking

    large: list[str] = []
    for domain in sorted(scope.effective_second_level_domains):
        rank = ranking.rank_of(domain)
        if rank is not None and rank <= _LARGE_SITE_RANK:
            large.append(domain)

    sitekey_domains = sum(
        result.scaled_confirmed(study.config.zone_scale_divisor)
        for result in study.parking_scan.values()
        if result.service.active
    )

    return TransparencyFindings(
        undocumented_groups=a_report.total_added,
        undocumented_filters=a_report.filters_in_groups(),
        unrestricted_filters=scope.unrestricted,
        sitekey_filters=scope.sitekey_filters,
        sitekey_domains_lower_bound=sitekey_domains,
        duplicate_filters=hygiene.duplicate_filter_count,
        malformed_filters=hygiene.malformed_count,
        truncated_filters=hygiene.truncated_count,
        deprecated_option_uses=sum(hygiene.deprecated_options.values()),
        large_whitelisted_publishers=tuple(large),
    )


def build_transparency_report(study: "AcceptableAdsStudy") -> str:
    """Render the findings as the Section 8 narrative."""
    findings = collect_findings(study)
    lines = [
        "TRANSPARENCY REPORT — Acceptable Ads whitelist",
        "=" * 54,
        "",
        "1. Financial entanglements",
        f"   {len(findings.large_whitelisted_publishers)} whitelisted "
        f"publishers rank in the Alexa top {_LARGE_SITE_RANK}; the "
        "'free for small sites' policy cannot explain their inclusion, "
        "and no fee disclosure exists for any of them.",
        "",
        "2. Undocumented modifications",
        f"   {findings.undocumented_groups} A-filter groups "
        f"({findings.undocumented_filters} filters) were added without "
        "community vetting or forum disclosure.",
        "",
        "3. Overly general filters",
        f"   {findings.unrestricted_filters} unrestricted filters and "
        f"{findings.sitekey_filters} sitekey filters have scope that "
        "cannot be determined from the list; the sitekeys alone admit "
        f"at least {findings.sitekey_domains_lower_bound:,} parked "
        "domains.",
        "",
        "4. Whitelisted-ad visibility",
        "   The instrumented engine records every exception activation; "
        "shipping equivalent UI would let users see what was allowed "
        "and why.",
        "",
        "5. Whitelist hygiene",
        f"   {findings.duplicate_filters} duplicate filters, "
        f"{findings.malformed_filters} malformed filters "
        f"({findings.truncated_filters} truncated at 4,095 chars), "
        f"{findings.deprecated_option_uses} deprecated-option uses.",
    ]
    return "\n".join(lines)
