"""Failure-injection tests: hostile inputs across module boundaries."""

import pytest

from repro.filters.engine import AdblockEngine, Verdict
from repro.filters.filterlist import parse_filter_list
from repro.filters.options import ContentType


class TestMalformedListThroughEngine:
    """A list full of garbage must degrade, never crash the engine."""

    GARBAGE = "\n".join([
        "||ok.com^",
        "@@||fine.com^$domain=a.com",
        "##",                       # empty selector
        "||broken^$what-is-this",   # unknown option
        "@@$sitekey=",              # empty sitekey
        "/[bad-regex/",
        "$$$",
        "a" * 5_000,                # oversized junk
    ])

    def test_valid_filters_still_work(self):
        engine = AdblockEngine()
        flist = parse_filter_list(self.GARBAGE, name="mixed")
        assert len(flist.invalid_filters) >= 4
        engine.subscribe(flist)
        decision = engine.check_request(
            "http://ok.com/x", ContentType.IMAGE, "page.com", "ok.com")
        assert decision.verdict is Verdict.BLOCK

    def test_invalid_entries_do_not_match(self):
        engine = AdblockEngine()
        engine.subscribe(parse_filter_list(self.GARBAGE, name="mixed"))
        decision = engine.check_request(
            "http://unrelated.org/", ContentType.IMAGE,
            "page.com", "unrelated.org")
        assert decision.verdict is Verdict.NO_MATCH


class TestHostileServers:
    def test_redirect_loop_counts_as_rejection(self):
        from repro.sitekey.parking import (PARKING_SERVICES, ZoneEntry,
                                           ZoneScanner)
        from repro.web.http import HttpResponse

        sedo = next(s for s in PARKING_SERVICES if s.name == "Sedo")

        def looper(request):
            return HttpResponse(status=302,
                                redirect_to=f"http://{request.url.host}/")

        scanner = ZoneScanner(
            key_bits=128, resolver_overlay={"loop-sedo.com": looper})
        results = scanner.scan(
            [ZoneEntry("loop-sedo.com", sedo.nameservers)])
        assert results["Sedo"].confirmed == 0

    def test_wrong_domain_signature_rejected(self):
        """A parked server replaying another domain's signature fails."""
        from repro.sitekey.parking import (PARKING_SERVICES, ZoneEntry,
                                           ZoneScanner)
        from repro.sitekey.protocol import make_header
        from repro.web.http import Headers, HttpResponse

        sedo = next(s for s in PARKING_SERVICES if s.name == "Sedo")
        key = sedo.keypair(bits=128)
        replayed = make_header("/", "some-other-host.com",
                               "Mozilla/5.0", key)

        def replayer(request):
            return HttpResponse(status=200, headers=Headers(
                [("X-Adblock-Key", replayed)]))

        scanner = ZoneScanner(
            key_bits=128,
            resolver_overlay={"replay-sedo.com": replayer})
        results = scanner.scan(
            [ZoneEntry("replay-sedo.com", sedo.nameservers)])
        assert results["Sedo"].confirmed == 0


class TestCorruptedHistory:
    def test_generator_rejects_impossible_population(self):
        """A population with too few generic publishers must fail loudly
        (pool exhaustion), not silently produce a short whitelist."""
        from repro.history.generator import generate_history
        from repro.measurement.alexa import build_study_population

        population = build_study_population(seed=2015)
        starved = population.__class__(
            ranking=population.ranking,
            publishers=tuple(p for p in population.publishers
                             if p.kind != "generic")[:40],
        )
        with pytest.raises(Exception):
            generate_history(seed=2015, key_bits=128,
                             population=starved)

    def test_repository_refuses_inconsistent_removal(self, history):
        from datetime import date

        from repro.history.repository import RepositoryError

        with pytest.raises(RepositoryError):
            history.repository.commit(
                date(2016, 1, 1), "bad",
                removed=["this line was never added"])


class TestDegenerateSurveys:
    def test_empty_target_list(self, history):
        from repro.measurement.samples import SampleGroup
        from repro.measurement.survey import build_engines
        from repro.parallel.scheduler import run_stealing_survey
        from repro.web.crawler import Crawler

        engine, _, _ = build_engines(history)
        empty = SampleGroup(name="empty", group_index=0, targets=())
        assert run_stealing_survey(
            [empty], crawler_factory=lambda: Crawler(engine),
            workers=1) == {"empty": []}

    def test_stats_on_empty_records(self):
        from repro.measurement.stats import (section51_headline,
                                             table4_top_filters)

        assert table4_top_filters([]) == []
        head = section51_headline([])
        assert head.surveyed == 0
        assert head.whitelist_activation == 0
