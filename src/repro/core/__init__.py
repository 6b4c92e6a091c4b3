"""Paper-level orchestration: the end-to-end study and Section 8 report."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".policy": (
        "AcceptabilityPolicy", "derive_policy", "policy_disagreement",
        "policy_filter_list",
    ),
    ".study": ("AcceptableAdsStudy", "StudyConfig"),
    ".transparency": (
        "TransparencyFindings", "build_transparency_report",
        "collect_findings",
    ),
})
