"""Unit tests for the crawl-outcome journal codec."""

import json
import random

import pytest

from repro.filters.engine import AdblockEngine
from repro.filters.filterlist import parse_filter_list
from repro.measurement.survey import SurveyConfig, run_survey
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


@pytest.fixture(scope="module")
def faulty_survey_payloads(history):
    result = run_survey(history, SurveyConfig(
        top_n=60, stratum_size=15, fault_rate=0.3, fault_seed=3))
    return [snapshot_outcome(outcome)
            for by_group in (result.outcomes, result.outcomes_easylist_only)
            for outcomes in by_group.values()
            for outcome in outcomes]


class TestSurveyRoundTrip:
    """Every outcome a faulty survey journals restores to itself."""

    def test_covers_every_status(self, faulty_survey_payloads):
        statuses = {p["status"] for p in faulty_survey_payloads}
        assert statuses == {s.value for s in CrawlStatus}

    def test_snapshot_of_restore_is_identity(self, faulty_survey_payloads):
        for payload in faulty_survey_payloads:
            journaled = json.loads(json.dumps(payload))
            assert snapshot_outcome(restore_outcome(journaled)) == payload

    def test_restored_decisions_are_shared_per_verdict(
            self, faulty_survey_payloads):
        by_verdict = {}
        for payload in faulty_survey_payloads:
            record = restore_outcome(payload).record
            if record is None:
                continue
            for decision in record.visit.decisions:
                assert decision.blocking == () == decision.exceptions
                assert by_verdict.setdefault(decision.verdict,
                                             decision) is decision
        assert len(by_verdict) == 3
