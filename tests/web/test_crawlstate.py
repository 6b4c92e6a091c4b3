"""Unit tests for the crawl-outcome journal codec."""

import json
import random

import pytest

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.web.crawler import Crawler, CrawlStatus, CrawlTarget
from repro.web.crawlstate import restore_outcome, snapshot_outcome


@pytest.fixture(scope="module")
def payload():
    engine = AdblockEngine()
    engine.subscribe(parse_filter_list("||adzerk.net^$third-party",
                                       name="easylist"))
    outcome = Crawler(engine).visit_target(
        CrawlTarget(domain="reddit.com", rank=31), rng=random.Random(0))
    assert outcome.record is not None
    return snapshot_outcome(outcome)


class TestBreakerOpenKey:
    """``breaker_open`` is a retired field kept in the journal format."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_restore_ignores_flag(self, payload, flag):
        data = json.loads(json.dumps(payload))
        data["breaker_open"] = flag
        outcome = restore_outcome(data)
        assert outcome.status is CrawlStatus.SUCCESS
        assert outcome.domain == "reddit.com"
        assert snapshot_outcome(outcome) == payload

    def test_round_trip_writes_false(self, payload):
        assert payload["breaker_open"] is False
        again = snapshot_outcome(restore_outcome(
            json.loads(json.dumps(payload))))
        assert again == payload
        assert again["breaker_open"] is False
