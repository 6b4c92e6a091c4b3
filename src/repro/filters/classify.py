"""Whitelist scope classification — Figure 4 and the Table 2 pipeline.

The paper's central structural observation is that exception filters fall
into three scope classes:

* **restricted** — the filter explicitly enumerates the first-party
  domains it can activate on (``domain=`` option for request filters,
  prepended domains for element filters).  These are the only filters
  whose beneficiaries can be read off the list itself;
* **sitekey** — the filter activates on *any* domain presenting a valid
  signature for one of its embedded RSA public keys;
* **unrestricted** — everything else; such filters can match on any site
  (conversion-tracking pixels, whitelisted ad networks like PageFair).

This module classifies filters, extracts the explicitly whitelisted
publisher domains, and reduces them to effective second-level domains —
the exact numbers reported in Section 4.2 and Table 2.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.filters.filterlist import FilterList
from repro.filters.parser import ElementFilter, Filter, RequestFilter
from repro.web.url import is_subdomain_of, registered_domain

__all__ = [
    "ScopeClass",
    "classify_filter",
    "ScopeReport",
    "classify_whitelist",
    "explicit_domains",
]


class ScopeClass(enum.Enum):
    """The three scope classes of Figure 4 (plus NOT_EXCEPTION)."""

    RESTRICTED = "restricted"
    UNRESTRICTED = "unrestricted"
    SITEKEY = "sitekey"
    NOT_EXCEPTION = "not_exception"


def classify_filter(flt: Filter) -> ScopeClass:
    """Scope class of a single filter.

    Only exception filters participate; blocking filters, comments and
    invalid entries classify as ``NOT_EXCEPTION``.  A filter that carries
    both a sitekey and a domain restriction counts as SITEKEY (the sitekey
    is what makes its effective scope unknowable from the list).
    """
    if isinstance(flt, RequestFilter) and flt.is_exception:
        if flt.options.has_sitekey:
            return ScopeClass.SITEKEY
        # Filter-level restriction: ``domain=`` *or* a ``||host``-anchored
        # pure privilege filter (the ``@@||ask.com^$elemhide`` shape).
        if flt.is_domain_restricted:
            return ScopeClass.RESTRICTED
        return ScopeClass.UNRESTRICTED
    if isinstance(flt, ElementFilter) and flt.is_exception:
        if flt.is_domain_restricted:
            return ScopeClass.RESTRICTED
        return ScopeClass.UNRESTRICTED
    return ScopeClass.NOT_EXCEPTION


def explicit_domains(filters: Iterable[Filter]) -> set[str]:
    """All first-party domains explicitly named by restricted filters."""
    domains: set[str] = set()
    for flt in filters:
        if classify_filter(flt) is ScopeClass.RESTRICTED:
            domains.update(flt.restricted_domains)  # type: ignore[union-attr]
    return domains


@dataclass
class ScopeReport:
    """Aggregate scope statistics over a whitelist (Figure 4 / Sec 4.2)."""

    total_filters: int = 0
    counts: Counter = field(default_factory=Counter)
    sitekeys: set[str] = field(default_factory=set)
    sitekey_filters: int = 0
    unrestricted_element_filters: int = 0
    fq_domains: set[str] = field(default_factory=set)

    @property
    def restricted(self) -> int:
        return self.counts[ScopeClass.RESTRICTED]

    @property
    def unrestricted(self) -> int:
        return self.counts[ScopeClass.UNRESTRICTED]

    @property
    def restricted_fraction(self) -> float:
        if not self.total_filters:
            return 0.0
        return self.restricted / self.total_filters

    @property
    def effective_second_level_domains(self) -> set[str]:
        """FQ domains reduced to e2LDs (Table 2's 1,990 from 3,545)."""
        return {registered_domain(d) for d in self.fq_domains}

    def subdomain_count(self, parent: str) -> int:
        """How many whitelisted FQDs fall under ``parent`` (e.g. about.com)."""
        return sum(1 for d in self.fq_domains if is_subdomain_of(d, parent))


def classify_whitelist(whitelist: FilterList) -> ScopeReport:
    """Classify every filter of ``whitelist`` and extract domain sets."""
    report = ScopeReport()
    for flt in whitelist.filters:
        scope = classify_filter(flt)
        if scope is ScopeClass.NOT_EXCEPTION:
            continue
        report.total_filters += 1
        report.counts[scope] += 1
        if scope is ScopeClass.SITEKEY:
            report.sitekey_filters += 1
            assert isinstance(flt, RequestFilter)
            report.sitekeys.update(flt.options.sitekeys)
        elif scope is ScopeClass.RESTRICTED:
            report.fq_domains.update(flt.restricted_domains)  # type: ignore[union-attr]
        elif isinstance(flt, ElementFilter):
            report.unrestricted_element_filters += 1
    return report
