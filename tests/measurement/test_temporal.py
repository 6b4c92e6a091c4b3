"""Tests for the temporal (per-revision) survey extension."""

from datetime import date

from repro.filters.filterlist import parse_filter_list
from repro.measurement.easylist import build_easylist
from repro.measurement.survey import EASYLIST_NAME, WHITELIST_NAME, \
    build_engines
from repro.measurement.temporal import (
    DEFAULT_SNAPSHOT_DATES,
    temporal_survey,
)


def engine_at(history, rev):
    """The temporal survey's engine for ``rev``: EasyList plus the
    whitelist as checked out at that revision."""
    whitelist = parse_filter_list(
        "\n".join(history.repository.checkout(rev)), name=WHITELIST_NAME)
    easylist = build_easylist(name=EASYLIST_NAME)
    return build_engines(history, lists=(easylist, whitelist))[0]


class TestEngineAtRevision:
    def test_early_revision_has_tiny_whitelist(self, history):
        engine = engine_at(history, 0)
        whitelist = engine.subscriptions[1]
        assert len(whitelist) == 9

    def test_tip_revision_has_full_whitelist(self, history):
        engine = engine_at(history, 988)
        # 5,936 filter lines, of which the 8 Rev-326 truncated ones do
        # not parse into active filters.
        whitelist = engine.subscriptions[1]
        assert len(whitelist) == 5_936 - 8
        assert len(whitelist.invalid_filters) == 8

    def test_early_engine_blocks_what_tip_allows(self, history):
        from repro.filters.engine import Verdict
        from repro.filters.options import ContentType

        url = "http://www.googleadservices.com/pagead/conversion.js"
        early = engine_at(history, 0)
        tip = engine_at(history, 988)
        blocked = early.check_request(url, ContentType.SCRIPT,
                                      "www.shop.example",
                                      "www.googleadservices.com")
        allowed = tip.check_request(url, ContentType.SCRIPT,
                                    "www.shop.example",
                                    "www.googleadservices.com")
        assert blocked.verdict is Verdict.BLOCK
        assert allowed.verdict is Verdict.ALLOW


class TestTemporalSurvey:
    def test_points_cover_snapshots(self, history):
        points = temporal_survey(history, top_n=120)
        assert len(points) == len(DEFAULT_SNAPSHOT_DATES)
        assert [p.when for p in points] == list(DEFAULT_SNAPSHOT_DATES)

    def test_filter_counts_grow(self, history):
        points = temporal_survey(history, top_n=60)
        counts = [p.whitelist_filters for p in points]
        assert counts == sorted(counts)
        assert counts[0] < 300
        assert counts[-1] == 5_936

    def test_activation_fraction_grows_strongly(self, history):
        points = temporal_survey(history, top_n=250)
        fractions = [p.whitelist_activation_fraction for p in points]
        # 2011's nine filters touch almost nothing; the 2015 whitelist
        # touches the survey's ~59%.
        assert fractions[0] < 0.10
        assert fractions[-1] > 0.45
        assert fractions[-1] > fractions[1] > fractions[0]

    def test_allowed_requests_grow(self, history):
        points = temporal_survey(history, top_n=250)
        assert points[-1].mean_allowed_requests > \
            points[0].mean_allowed_requests

    def test_custom_snapshots(self, history):
        points = temporal_survey(
            history, top_n=40,
            snapshot_dates=[date(2013, 6, 30), date(2014, 6, 30)])
        assert len(points) == 2
        assert points[0].rev < points[1].rev
