"""The Section 5 measurement study: ranking, samples, survey, statistics."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".alexa": (
        "AlexaRanking", "GOOGLE_CCTLD_COUNT", "PARTITION_TARGETS",
        "StudyPopulation", "TOTAL_WHITELISTED_E2LDS", "WhitelistedPublisher",
        "WhitelistedRanks", "build_study_population", "google_cctld_domains",
        "whitelisted_rank_sets",
    ),
    ".behavior": (
        "BehaviorReport", "FilterBehavior", "characterize_filters",
        "scope_utilisation",
    ),
    ".easylist": ("EASYLIST_FILLER_COUNT", "build_easylist"),
    ".samples": ("SAMPLE_GROUP_SPECS", "SampleGroup", "build_samples"),
    ".stats": (
        "EcdfSeries", "Figure7", "GroupFilterMatrix", "PartitionRow",
        "Section51Headline", "SiteMatchBar", "TopFilterRow",
        "figure6_site_matches", "figure7_ecdf", "figure8_group_matrix",
        "section51_headline", "table2_partitions", "table4_top_filters",
    ),
    ".temporal": (
        "DEFAULT_SNAPSHOT_DATES", "TemporalPoint", "temporal_survey",
    ),
    ".survey": (
        "EASYLIST_NAME", "SurveyConfig", "SurveyResult", "WHITELIST_NAME",
        "build_engines", "make_profile_factory", "run_survey",
    ),
})
