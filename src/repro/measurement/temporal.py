"""Temporal survey: how the user experience changed across revisions.

The paper measures the whitelist's impact at one instant (Rev 988) and
its content over time (Figure 3), but never connects them.  This
extension does: it rebuilds the engine against the whitelist *as of*
chosen historical revisions and reruns the top-group survey under each,
showing how the fraction of top sites with allowed advertising grew
from 2011's nine filters to 2015's 59%.

The whole apparatus is reused — the survey's top sample group, its
engine builder and its crawl executor
(:func:`repro.parallel.scheduler.run_stealing_survey`) — only the
whitelist snapshot changes, exactly as a user's Adblock Plus would have
behaved had they browsed on that date.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.filters.filterlist import parse_filter_list
from repro.measurement.easylist import build_easylist
from repro.measurement.samples import build_samples
from repro.measurement.survey import EASYLIST_NAME, WHITELIST_NAME, \
    build_engines, make_profile_factory
from repro.parallel.scheduler import run_stealing_survey
from repro.web.crawler import Crawler

if TYPE_CHECKING:  # pragma: no cover
    from repro.history.generator import WhitelistHistory

__all__ = ["TemporalPoint", "temporal_survey", "DEFAULT_SNAPSHOT_DATES"]

#: One snapshot per program year (the last survey date is the paper's).
DEFAULT_SNAPSHOT_DATES: tuple[date, ...] = (
    date(2011, 12, 30),
    date(2012, 12, 29),
    date(2013, 12, 30),
    date(2014, 12, 30),
    date(2015, 4, 28),
)


@dataclass(frozen=True, slots=True)
class TemporalPoint:
    """Survey outcome under one historical whitelist snapshot."""

    when: date
    rev: int
    whitelist_filters: int
    surveyed: int
    whitelist_activation_fraction: float
    mean_allowed_requests: float


def temporal_survey(history: "WhitelistHistory",
                    *, top_n: int = 500,
                    snapshot_dates: Sequence[date] = DEFAULT_SNAPSHOT_DATES
                    ) -> list[TemporalPoint]:
    """Rerun the top-group survey under each historical snapshot.

    EasyList is built once; each revision is checked out once, and its
    engine is :func:`~repro.measurement.survey.build_engines` over
    EasyList and that revision's whitelist.
    """
    top = build_samples(history.population.ranking, top_n=top_n,
                        stratum_size=0)[0]
    factory = make_profile_factory(history)
    easylist = build_easylist(name=EASYLIST_NAME)

    points: list[TemporalPoint] = []
    for when in snapshot_dates:
        rev = history.repository.rev_at_date(when)
        if rev is None:
            continue
        lines = history.repository.checkout(rev)
        whitelist = parse_filter_list("\n".join(lines), name=WHITELIST_NAME)
        engine = build_engines(history, lists=(easylist, whitelist))[0]
        outcomes = run_stealing_survey(
            [top], crawler_factory=partial(Crawler, engine,
                                           profile_factory=factory),
            workers=1)[top.name]
        records = [o.record for o in outcomes if o.record is not None]

        activating = sum(
            1 for record in records
            if any(a.list_name == WHITELIST_NAME
                   for a in record.visit.whitelist_activations))
        allowed = [record.visit.allowed_count for record in records]
        points.append(TemporalPoint(
            when=when,
            rev=rev,
            whitelist_filters=sum(
                1 for line in lines if line and not line.startswith("!")),
            surveyed=len(records),
            whitelist_activation_fraction=activating / len(records),
            mean_allowed_requests=sum(allowed) / len(allowed),
        ))
    return points
