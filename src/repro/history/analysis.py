"""Whitelist-history analyses: Table 1 and Figure 3.

These functions consume a :class:`repro.history.repository.Repository`
through the same interface a real ``hg`` checkout would offer, so they
work identically on the synthetic history and (in principle) a parsed
dump of the real one.

Definitions, matching the paper:

* *filters added/removed* per year count non-comment line changes;
  a modification (remove old text, add new text) counts on both sides —
  "modifications are counted as new filters" (Table 1 caption);
* *domains added* counts the **first appearance** of each fully
  qualified first-party domain named by a restricted filter;
  re-additions after a removal are not counted again;
* *domains removed* counts domains whose last referencing filter
  disappears (reference counting over the working copy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

from repro.history.repository import Repository

__all__ = [
    "YearActivity",
    "yearly_activity",
    "monthly_activity",
    "GrowthPoint",
    "growth_series",
    "update_cadence",
]


@dataclass(slots=True)
class YearActivity:
    """One row of Table 1."""

    year: int
    revisions: int = 0
    filters_added: int = 0
    filters_removed: int = 0
    domains_added: int = 0
    domains_removed: int = 0


def _is_filter_line(line: str) -> bool:
    return bool(line) and not line.startswith("!")


def domains_of(line: str, cache: dict[str, tuple[str, ...]]
               ) -> tuple[str, ...]:
    """The first-party domains a filter line is restricted to.

    ``()`` for unrestricted and malformed lines.  Each line is parsed at
    most once per ``cache``; the history generator seeds its cache with
    the domains of every line it formats, so only hand-written lines
    reach the parser.
    """
    cached = cache.get(line)
    if cached is None:
        from repro.filters.parser import parse_filter

        parsed = parse_filter(line)
        cached = tuple(getattr(parsed, "restricted_domains", ()))
        cache[line] = cached
    return cached


def yearly_activity(repo: Repository) -> list[YearActivity]:
    """Compute Table 1 from a repository."""
    rows: dict[int, YearActivity] = {}
    seen_domains: set[str] = set()
    refcount: dict[str, int] = {}
    cache: dict[str, tuple[str, ...]] = {}

    for changeset in repo.log():
        year = changeset.when.year
        row = rows.setdefault(year, YearActivity(year=year))
        row.revisions += 1

        added_filters = [l for l in changeset.added if _is_filter_line(l)]
        removed_filters = [l for l in changeset.removed if _is_filter_line(l)]
        row.filters_added += len(added_filters)
        row.filters_removed += len(removed_filters)

        # Adds first: a same-revision modification keeps the domain's
        # reference count positive throughout.
        for line in added_filters:
            for domain in domains_of(line, cache):
                refcount[domain] = refcount.get(domain, 0) + 1
                if domain not in seen_domains:
                    seen_domains.add(domain)
                    row.domains_added += 1
        for line in removed_filters:
            for domain in domains_of(line, cache):
                refcount[domain] -= 1
                if refcount[domain] == 0:
                    row.domains_removed += 1

    return [rows[year] for year in sorted(rows)]


@dataclass(slots=True)
class MonthActivity:
    """Finer-grained activity: one month of whitelist changes."""

    year: int
    month: int
    revisions: int = 0
    filters_added: int = 0
    filters_removed: int = 0

    @property
    def net_change(self) -> int:
        return self.filters_added - self.filters_removed


def monthly_activity(repo: Repository) -> list[MonthActivity]:
    """Per-month revision and filter-change counts.

    A finer slicing of Table 1, useful for locating the Figure 3 jumps
    in calendar time (Google lands in mid-2013, ask/about late 2013).
    Months without revisions are omitted.
    """
    rows: dict[tuple[int, int], MonthActivity] = {}
    for changeset in repo.log():
        key = (changeset.when.year, changeset.when.month)
        row = rows.setdefault(key, MonthActivity(year=key[0],
                                                 month=key[1]))
        row.revisions += 1
        row.filters_added += sum(
            1 for l in changeset.added if _is_filter_line(l))
        row.filters_removed += sum(
            1 for l in changeset.removed if _is_filter_line(l))
    return [rows[key] for key in sorted(rows)]


@dataclass(frozen=True, slots=True)
class GrowthPoint:
    """One point of Figure 3's growth curve."""

    rev: int
    when: date
    filters: int


def growth_series(repo: Repository) -> list[GrowthPoint]:
    """Figure 3: active (non-comment) filter count after each revision."""
    points: list[GrowthPoint] = []
    count = 0
    for changeset in repo.log():
        count += sum(1 for l in changeset.added if _is_filter_line(l))
        count -= sum(1 for l in changeset.removed if _is_filter_line(l))
        points.append(GrowthPoint(rev=changeset.rev, when=changeset.when,
                                  filters=count))
    return points


@dataclass(frozen=True, slots=True)
class Cadence:
    """Update-rate summary: 'every 1.5 days, 11.4 filters per update'."""

    days_per_update: float
    changes_per_update: float
    updates: int


def update_cadence(repo: Repository, *, since: date | None = None) -> Cadence:
    """Average update interval and per-update filter churn.

    ``since`` restricts to changesets on/after a date (the paper's
    headline averages are over the whole history).
    """
    changesets = [c for c in repo.log()
                  if since is None or c.when >= since]
    if len(changesets) < 2:
        raise ValueError("need at least two changesets for a cadence")
    span_days = (changesets[-1].when - changesets[0].when).days
    updates = len(changesets) - 1
    total_changes = sum(
        sum(1 for l in c.added if _is_filter_line(l))
        + sum(1 for l in c.removed if _is_filter_line(l))
        for c in changesets
    )
    return Cadence(
        days_per_update=span_days / updates,
        changes_per_update=total_changes / len(changesets),
        updates=updates,
    )
