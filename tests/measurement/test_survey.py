"""Tests for the Section 5 survey harness (scaled-down runs)."""

import repro.filters.filterlist as filterlist
import repro.measurement.survey as survey
from repro.measurement.survey import (
    EASYLIST_NAME,
    WHITELIST_NAME,
    SurveyConfig,
    build_engines,
    make_profile_factory,
    run_survey,
)
from repro.web.crawler import CrawlTarget


class TestBuildEngines:
    def test_default_config_has_both_lists(self, history):
        engine, easylist, whitelist = build_engines(history)
        assert [s.name for s in engine.subscriptions] == [
            EASYLIST_NAME, WHITELIST_NAME]
        assert len(whitelist) > 5_000
        assert len(easylist) > 1_000

    def test_whitelist_disabled(self, history):
        engine, _, _ = build_engines(history, with_whitelist=False)
        assert [s.name for s in engine.subscriptions] == [EASYLIST_NAME]

    def test_survey_parses_each_list_once(self, history, monkeypatch):
        """Both engine configurations subscribe to one parse of each list."""
        parsed: list[str] = []
        engines = []
        parse = filterlist.parse_filter_list
        build = survey.build_engines

        def counting_parse(*args, **kwargs):
            parsed.append(kwargs.get("name", ""))
            return parse(*args, **kwargs)

        def capturing_build(*args, **kwargs):
            built = build(*args, **kwargs)
            engines.append(built[0])
            return built

        # One patch sees both parses: EasyList's goes through the module.
        monkeypatch.setattr(filterlist, "parse_filter_list", counting_parse)
        monkeypatch.setattr(survey, "build_engines", capturing_build)
        result = run_survey(history, SurveyConfig(
            top_n=8, stratum_size=2, compare_without_whitelist=True))
        assert sorted(parsed) == [EASYLIST_NAME, WHITELIST_NAME]
        with_whitelist, easylist_only = engines
        assert with_whitelist.subscriptions[0] is result.easylist
        assert with_whitelist.subscriptions[1] is result.whitelist
        assert len(easylist_only.subscriptions) == 1
        assert easylist_only.subscriptions[0] is result.easylist


class TestProfileFactory:
    def test_generic_publisher_gets_filters(self, history):
        factory = make_profile_factory(history)
        # Find a generic publisher that exists in the directory and is
        # inside the ranking.
        ranking = history.population.ranking
        for publisher in history.population.generic_pool:
            if publisher.rank is None:
                continue
            if publisher.e2ld not in history.publisher_directory:
                continue
            profile = factory(CrawlTarget(domain=publisher.e2ld,
                                          rank=publisher.rank))
            if profile.inert:
                continue
            assert profile.is_whitelisted_publisher
            assert "generic-publisher-adserv" in profile.networks
            return
        raise AssertionError("no ranked generic publisher found")

    def test_non_publisher_untouched(self, history):
        factory = make_profile_factory(history)
        profile = factory(CrawlTarget(domain="never-whitelisted-x.com",
                                      rank=4_999))
        assert not profile.is_whitelisted_publisher

    def test_pinned_profiles_pass_through(self, history):
        from repro.web.sites import PINNED_PROFILES

        factory = make_profile_factory(history)
        profile = factory(CrawlTarget(domain="reddit.com", rank=31))
        assert profile is PINNED_PROFILES["reddit.com"]


class TestSurveyResult:
    def test_both_configurations_present(self, site_survey):
        assert set(site_survey.records) == set(
            site_survey.records_easylist_only)

    def test_group_sizes(self, site_survey, study):
        assert len(site_survey.top5k) == study.config.survey.top_n
        for group in site_survey.groups[1:]:
            assert len(site_survey.records[group.name]) == \
                study.config.survey.stratum_size

    def test_whitelist_attached(self, site_survey):
        assert site_survey.whitelist is not None
        assert site_survey.whitelist.name == WHITELIST_NAME

    def test_easylist_only_run_has_no_whitelist_activations(
            self, site_survey):
        for records in site_survey.records_easylist_only.values():
            for record in records:
                assert not any(
                    a.list_name == WHITELIST_NAME
                    for a in record.visit.activations)

    def test_whitelisted_publishers_activate_their_filters(
            self, site_survey):
        activated = 0
        for record in site_survey.top5k:
            if not record.profile.is_whitelisted_publisher:
                continue
            if record.profile.inert:
                continue
            own = set(record.profile.whitelist_filters)
            if own & record.visit.distinct_whitelist_filters:
                activated += 1
        assert activated >= 5

    def test_all_records_concatenates_groups(self, site_survey):
        total = sum(len(site_survey.records[g.name])
                    for g in site_survey.groups)
        assert len(site_survey.all_records()) == total
