"""The Section 6 user-perception study."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".ads": (
        "AdClass", "AdPlacement", "SURVEY_ADS", "SURVEY_SITES", "ad_by_label",
        "ads_in_class",
    ),
    ".likert": (
        "Likert", "LikertDistribution", "THRESHOLDS", "latent_to_likert",
    ),
    ".respondents": (
        "BROWSER_SHARES", "Demographics", "RESPONDENT_COUNT", "Respondent",
        "build_population", "demographics",
    ),
    ".survey": (
        "PerceptionResult", "QUESTIONS_PER_RESPONDENT", "Response",
        "STATEMENTS", "Statement", "run_perception_survey",
    ),
})
