"""Whitelist history substrate: revision store, generator, analyses."""

from repro.history.afilters import AFilterReport, AGroup, mine_a_filters
from repro.history.analysis import (
    Cadence,
    GrowthPoint,
    YearActivity,
    growth_series,
    monthly_activity,
    update_cadence,
    yearly_activity,
)
from repro.history.generator import (
    FORUM_URL,
    WhitelistHistory,
    YEARLY_TARGETS,
    YearTargets,
    generate_history,
)
from repro.history.repository import Changeset, Repository, RepositoryError

__all__ = [
    "AFilterReport",
    "monthly_activity",
    "AGroup",
    "Cadence",
    "Changeset",
    "FORUM_URL",
    "GrowthPoint",
    "Repository",
    "RepositoryError",
    "WhitelistHistory",
    "YEARLY_TARGETS",
    "YearActivity",
    "YearTargets",
    "generate_history",
    "growth_series",
    "mine_a_filters",
    "update_cadence",
    "yearly_activity",
]
