"""Benchmark fixtures: one paper-scale study shared by every benchmark.

The heavy artifacts (989-revision history, 8,000-domain crawl in two
engine configurations, zone scan, perception survey) are built once per
benchmark session; each benchmark then times its analysis stage and
prints the paper-vs-measured comparison for its table or figure.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the printed
comparisons.

Set ``BENCH_QUICK=1`` for the CI smoke mode: the shared study shrinks
to a fraction of paper scale, so every benchmark still runs end to end
(and still emits its JSON artifacts) in a couple of minutes, at the
price of paper-comparable numbers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.study import AcceptableAdsStudy, StudyConfig
from repro.measurement.survey import SurveyConfig

#: CI smoke mode: scaled-down artifacts, same code paths.
BENCH_QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

#: Where the performance benchmarks write their ``BENCH_*.json``
#: results.  The directory is committed but its contents are ignored
#: (its own ``.gitignore``).  The ``BENCH_*.json`` files at the repository
#: root are the committed baselines CI's perf gate diffs against; a run
#: never overwrites them, and re-baselining is copying a result there.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

#: Zone scale used by benchmarks (results are scaled back up).
BENCH_ZONE_DIVISOR = 20_000 if BENCH_QUICK else 2_000


@pytest.fixture(scope="session")
def paper_study() -> AcceptableAdsStudy:
    """The full paper-scale study (minutes to build, built once)."""
    config = StudyConfig(
        seed=2015,
        key_bits=128 if BENCH_QUICK else 512,
        survey=(SurveyConfig(top_n=500, stratum_size=100) if BENCH_QUICK
                else SurveyConfig(top_n=5_000, stratum_size=1_000)),
        zone_scale_divisor=BENCH_ZONE_DIVISOR,
        zone_noise_domains=200 if BENCH_QUICK else 2_000,
        perception_respondents=305,
    )
    return AcceptableAdsStudy(config)


@pytest.fixture(scope="session")
def survey(paper_study):
    return paper_study.site_survey


def print_block(text: str) -> None:
    """Print a benchmark's comparison block, set off from pytest noise."""
    print("\n" + text + "\n")


def write_result(path: str, payload: dict) -> None:
    """Write one benchmark's JSON result document under ``RESULTS_DIR``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
