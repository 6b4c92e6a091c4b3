"""Unit tests for site profiles and page synthesis."""

import pytest

from repro.measurement.samples import build_samples
from repro.measurement.survey import make_profile_factory
from repro.web.adnetworks import NETWORK_CATALOG, network
from repro.web.sites import (
    AD_LIGHT_FRACTION,
    INERT_FRACTION,
    PINNED_PROFILES,
    build_page,
    pinned_profile,
    profile_for_domain,
)
from repro.web.url import parse_url


class TestPinnedProfiles:
    def test_reddit_profile_pinned(self):
        profile = profile_for_domain("reddit.com", 31)
        assert profile is PINNED_PROFILES["reddit.com"]
        assert profile.is_whitelisted_publisher

    def test_pinned_ranks_unique(self):
        ranks = [p.rank for p in PINNED_PROFILES.values()]
        assert len(ranks) == len(set(ranks))

    def test_pinned_networks_exist_in_catalog(self):
        names = {net.name for net in NETWORK_CATALOG}
        for profile in PINNED_PROFILES.values():
            for net in profile.networks:
                assert net in names, (profile.domain, net)

    def test_survey_sites_all_pinned(self):
        from repro.perception.ads import SURVEY_SITES

        for site in SURVEY_SITES:
            assert pinned_profile(site) is not None, site

    def test_inert_pinned_sites(self):
        assert PINNED_PROFILES["wikipedia.org"].inert
        assert PINNED_PROFILES["craigslist.org"].inert


class TestGeneratedProfiles:
    def test_deterministic(self):
        a = profile_for_domain("somesite.com", 777)
        b = profile_for_domain("somesite.com", 777)
        assert a.networks == b.networks
        assert a.inert == b.inert
        assert a.ad_intensity == b.ad_intensity

    def test_non_inert_sites_never_empty(self):
        for i in range(200):
            profile = profile_for_domain(f"site{i}.com", i + 100)
            if not profile.inert:
                assert profile.networks, profile.domain

    def test_inert_fraction_near_configured(self):
        inert = sum(
            1 for i in range(2_000)
            if profile_for_domain(f"frac{i}.com", i + 10).inert)
        assert abs(inert / 2_000 - INERT_FRACTION) < 0.03

    def test_ad_light_sites_use_no_whitelisted_networks(self):
        from repro.web.adnetworks import whitelisted_networks

        whitelisted = {n.name for n in whitelisted_networks()}
        light = 0
        for i in range(1_000):
            profile = profile_for_domain(f"light{i}.net", i + 10)
            if profile.inert:
                continue
            if not (set(profile.networks) & whitelisted):
                light += 1
        assert light > 0  # the ad-light population exists

    def test_group_index_changes_rates(self):
        deployed_top = deployed_deep = 0
        for i in range(600):
            top = profile_for_domain(f"g{i}.com", i + 1, group_index=0)
            deep = profile_for_domain(f"h{i}.com", i + 1, group_index=3)
            deployed_top += len(top.networks)
            deployed_deep += len(deep.networks)
        assert deployed_top > deployed_deep


class TestBuildPage:
    def test_reddit_page_requests(self):
        page = build_page(PINNED_PROFILES["reddit.com"])
        urls = [r.url for r in page.requests]
        assert any("adzerk.net" in u for u in urls)
        assert any("doubleclick" in u for u in urls)

    def test_reddit_ad_elements(self):
        page = build_page(PINNED_PROFILES["reddit.com"])
        ids = {el.element_id for el in page.document.ad_elements()}
        assert "ad_main" in ids
        assert "siteTable_organic" in ids

    def test_inert_page_has_no_filterable_requests(self):
        page = build_page(PINNED_PROFILES["wikipedia.org"])
        assert page.requests == []
        assert page.document.ad_elements() == []

    def test_benign_resources_always_present(self):
        page = build_page(profile_for_domain("anysite.org", 123))
        if not page.profile.inert:
            urls = [r.url for r in page.requests]
            assert any(u.endswith("main.css") for u in urls)

    def test_cookie_sensitivity_increases_ads(self):
        ask = PINNED_PROFILES["ask.com"]
        fresh = build_page(ask, has_cookies=False)
        returning = build_page(ask, has_cookies=True)
        assert len(fresh.requests) >= len(returning.requests)

    def test_adblock_detection_swaps_stack(self):
        imgur = PINNED_PROFILES["imgur.com"]
        normal = build_page(imgur, adblock_visible=False)
        detected = build_page(imgur, adblock_visible=True)
        assert len(detected.requests) <= len(normal.requests)

    def test_repeat_counts_scale_with_intensity(self):
        toyota = build_page(PINNED_PROFILES["toyota.com"])
        # 8 networks at intensity 8.6 -> dozens of ad requests.
        ad_requests = [r for r in toyota.requests if r.network]
        assert len(ad_requests) >= 50

    def test_deterministic_page(self):
        profile = profile_for_domain("stable.com", 50)
        a = build_page(profile)
        b = build_page(profile)
        assert [r.url for r in a.requests] == [r.url for r in b.requests]


class TestRequestHosts:
    """Every generated request carries the host its URL parses to.

    The browser reads ``PageRequest.host`` instead of parsing each
    request URL, so the contract must hold for every page the survey
    can build, in every browser state.
    """

    STATES = [(cookies, visible) for cookies in (False, True)
              for visible in (False, True)]

    @staticmethod
    def _assert_hosts(profile, has_cookies, adblock_visible):
        page = build_page(profile, has_cookies=has_cookies,
                          adblock_visible=adblock_visible)
        for request in page.requests:
            assert request.host == parse_url(request.url).host, (
                profile.domain, request.url)
            if not request.network:
                # The page's own requests: the browser gives them the
                # parsed page host.
                assert request.url.startswith(page.document.url)
        return len(page.requests)

    @pytest.mark.parametrize("has_cookies,adblock_visible", STATES)
    def test_pinned_profiles(self, has_cookies, adblock_visible):
        total = sum(self._assert_hosts(profile, has_cookies,
                                       adblock_visible)
                    for profile in PINNED_PROFILES.values())
        assert total > 0

    @pytest.mark.parametrize("has_cookies,adblock_visible", STATES)
    def test_ranked_survey_domains(self, history, has_cookies,
                                   adblock_visible):
        factory = make_profile_factory(history)
        targets = [target for group in build_samples(
                       history.population.ranking, top_n=400,
                       stratum_size=50)
                   for target in group.targets]
        assert len(targets) >= 500
        total = sum(self._assert_hosts(factory(target), has_cookies,
                                       adblock_visible)
                    for target in targets)
        assert total > len(targets)


class TestCatalogIntegrity:
    def test_unique_network_names(self):
        names = [n.name for n in NETWORK_CATALOG]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert network("gstatic").name == "gstatic"

    def test_whitelist_filters_parse(self):
        from repro.filters.parser import InvalidFilter, parse_filter

        for net in NETWORK_CATALOG:
            for text in net.whitelist_filters + net.blocking_filters:
                assert not isinstance(parse_filter(text), InvalidFilter), \
                    text

    def test_rate_for_group_scales_down(self):
        net = network("doubleclick-conversion")
        assert net.rate_for_group(0) >= net.rate_for_group(1) >= \
            net.rate_for_group(2) >= net.rate_for_group(3)

    def test_figure8_outlier_peaks_in_deep_stratum(self):
        net = network("google-analytics-conversion")
        assert net.rate_for_group(3) > net.rate_for_group(0)
