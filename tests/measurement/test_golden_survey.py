"""Golden pin: the Section 5 survey's outcomes, byte for byte.

A reduced survey (``top_n=60``, ``stratum_size=15``) over the study's
own history is digested exactly the way the repository benchmark's
survey workload digests its output: every outcome row of both engine
configurations, then the Table 4 rows, then the Section 5.1 headline.
The digest equals the benchmark's pinned ``survey-inline/small/0``
value, so any change to how requests are matched, recorded or counted
— a reordered candidate, a lost activation, a moved Table 4 row —
fails here, in the ordinary test run, before it can move the paper's
numbers.
"""

import dataclasses
import hashlib
import json

from repro.history.generator import generate_history
from repro.measurement import stats
from repro.measurement.survey import SurveyConfig, run_survey
from repro.parallel.caches import reset_process_caches
from repro.web.crawlstate import snapshot_outcome

#: SHA-256 of :func:`_survey_digest` for history seed 2015, key_bits 512.
GOLDEN = "ab271e8dcde46253468f25e38f5b0338cef41c5f2da50fe8b857e3ce50c43768"


def _survey_digest(result) -> str:
    """Outcome rows of both configurations, then Table 4, then §5.1."""
    digest = hashlib.sha256()

    def feed(value) -> None:
        digest.update(json.dumps(value, sort_keys=True,
                                 separators=(",", ":")).encode())
        digest.update(b"\n")

    for by_group in (result.outcomes, result.outcomes_easylist_only):
        for group in result.groups:
            for outcome in by_group.get(group.name, []):
                feed(snapshot_outcome(outcome))
    for row in stats.table4_top_filters(result.top5k, top=20):
        feed(dataclasses.asdict(row))
    feed(dataclasses.asdict(stats.section51_headline(result.top5k)))
    return digest.hexdigest()


def test_small_survey_digest_is_pinned():
    reset_process_caches()
    history = generate_history(seed=2015, key_bits=512)
    result = run_survey(history, SurveyConfig(top_n=60, stratum_size=15))
    assert _survey_digest(result) == GOLDEN
