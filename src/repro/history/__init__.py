"""Whitelist history substrate: revision store, generator, analyses."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".afilters": ("AFilterReport", "AGroup", "mine_a_filters"),
    ".analysis": (
        "Cadence", "GrowthPoint", "YearActivity", "growth_series",
        "monthly_activity", "update_cadence", "yearly_activity",
    ),
    ".generator": (
        "FORUM_URL", "WhitelistHistory", "YEARLY_TARGETS", "YearTargets",
        "generate_history",
    ),
    ".repository": ("Changeset", "Repository", "RepositoryError"),
})
