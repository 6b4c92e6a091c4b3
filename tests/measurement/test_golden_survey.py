"""Golden pin: the Section 5 survey's outcomes, byte for byte.

Two reduced surveys and the paper-scale one over the study's own
history are digested exactly the way the repository benchmark's survey
workload digests its output: every outcome row of both engine
configurations, then the Table 4 rows, then the Section 5.1 headline.
The reduced digests equal the benchmark's pinned
``survey-inline/small/0`` (``top_n=60``, ``stratum_size=15``) and
``survey-inline/full/0`` (``top_n=300``, ``stratum_size=75``) values,
so any change to how requests are matched, recorded or counted
— a reordered candidate, a lost activation, a moved Table 4 row —
fails here, in the ordinary test run, before it can move the paper's
numbers.  The larger sample holds requests that several filters match
in an order-sensitive way, which the smaller one does not exercise.
The paper-scale survey (``top_n=5000``, ``stratum_size=1000``: 8,000
domains, 16,000 visits, ~4 s) is the one the paper reports; its digest
pins every row behind Table 4 and Figures 6-8.
"""

import dataclasses
import hashlib
import json

from repro.history.generator import generate_history
from repro.measurement import stats
from repro.measurement.survey import SurveyConfig, run_survey
from repro.parallel.caches import reset_process_caches
from repro.web.crawlstate import snapshot_outcome

#: SHA-256 of :func:`_survey_digest` for history seed 2015, key_bits 512,
#: per ``(top_n, stratum_size)``.
GOLDEN = {
    (60, 15):
        "ab271e8dcde46253468f25e38f5b0338cef41c5f2da50fe8b857e3ce50c43768",
    (300, 75):
        "a1cea4b2b30a581c0a6837f772fb88d863d5cdc1bcdfb6d7f06c6f7730fb68d1",
    (5000, 1000):
        "13bb5ed6c701dbfb06ba010e060ca0eb1aec517cf386fa52d9e42538334c8f38",
}


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


def _pinned_digest(top_n: int, stratum_size: int) -> str:
    reset_process_caches()
    history = generate_history(seed=2015, key_bits=512)
    result = run_survey(history, SurveyConfig(top_n=top_n,
                                              stratum_size=stratum_size))
    return _survey_digest(result)


def test_small_survey_digest_is_pinned():
    assert _pinned_digest(60, 15) == GOLDEN[60, 15]


def test_full_survey_digest_is_pinned():
    assert _pinned_digest(300, 75) == GOLDEN[300, 75]


def test_paper_scale_survey_digest_is_pinned():
    assert _pinned_digest(5000, 1000) == GOLDEN[5000, 1000]
