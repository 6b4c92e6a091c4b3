"""Unit tests for the ad-network catalog and variant machinery."""

import pytest

from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter, parse_filter
from repro.web.adnetworks import (
    NETWORK_CATALOG,
    AdResource,
    blocking_networks,
    network,
    whitelisted_networks,
)
from repro.web.sites import build_page, profile_for_domain, SiteProfile
from repro.web.url import parse_url


class TestCatalogConsistency:
    def test_whitelisted_networks_have_whitelist_filters(self):
        for net in whitelisted_networks():
            assert net.whitelist_filters

    def test_blocking_networks_have_blocking_filters(self):
        for net in blocking_networks():
            assert net.blocking_filters

    def test_gstatic_is_deliberately_unblocked(self):
        assert network("gstatic").blocking_filters == ()

    def test_every_resource_url_is_wellformed_template(self):
        for net in NETWORK_CATALOG:
            for resource in net.resources:
                url = resource.url_template.format(
                    host="site.com",
                    variant=(resource.variants[0]
                             if resource.variants else ""))
                assert url.startswith("http")

    def test_every_template_netloc_is_placeholder_free(self):
        for net in NETWORK_CATALOG:
            for resource in net.resources:
                netloc = resource.url_template.split("://", 1)[1]
                netloc = netloc.split("/", 1)[0]
                assert "{" not in netloc and "}" not in netloc, net.name
                for variant in resource.variants or ("",):
                    url = resource.url_template.format(
                        host="some-site.co.uk", variant=variant)
                    assert parse_url(url).host == resource.host

    @pytest.mark.parametrize("template", [
        "http://{host}/ad.js",
        "http://ads.{host}/ad.js",
        "http://{variant}.cdn.net/ad.js",
        "http://cdn.net:{host}/ad.js",
    ])
    def test_placeholder_in_netloc_raises(self, template):
        with pytest.raises(ValueError, match="not in the host"):
            AdResource(template, ContentType.SCRIPT)

    def test_host_is_derived_not_passed(self):
        resource = AdResource("http://Ads.Example.NET/{variant}?s={host}",
                              ContentType.IMAGE, variants=("a",))
        assert resource.host == "ads.example.net"
        with pytest.raises(TypeError):
            AdResource("http://a.net/x", ContentType.IMAGE, host="b.net")

    def test_whitelist_filter_matches_every_variant(self):
        """The broad-exception / narrow-blocking asymmetry of Fig 8:
        each network's whitelist filter must cover all its variants."""
        for net in whitelisted_networks():
            exceptions = [parse_filter(t) for t in net.whitelist_filters
                          if t.startswith("@@")]
            for resource in net.resources:
                variants = resource.variants or ("",)
                for variant in variants:
                    url = resource.url_template.format(
                        host="site.com", variant=variant)
                    host = parse_url(url).host
                    matched = any(
                        isinstance(f, RequestFilter)
                        and not f.is_domain_restricted
                        and f.matches(url, resource.content_type,
                                      "page.com", host)
                        for f in exceptions)
                    assert matched or not exceptions or any(
                        f.is_domain_restricted for f in exceptions
                        if isinstance(f, RequestFilter)), (net.name, url)

    def test_blocking_covers_every_variant(self):
        """Every variant of a blocked network must hit some blocking
        filter — otherwise a whitelist exception could be needless by
        accident rather than by design."""
        for net in NETWORK_CATALOG:
            if not net.blocking_filters:
                continue
            blockers = [parse_filter(t) for t in net.blocking_filters
                        if "##" not in t]
            for resource in net.resources:
                for variant in (resource.variants or ("",)):
                    url = resource.url_template.format(
                        host="site.com", variant=variant)
                    host = parse_url(url).host
                    assert any(
                        f.matches(url, resource.content_type,
                                  "page.com", host)
                        for f in blockers
                        if isinstance(f, RequestFilter)), (net.name, url)


class TestVariantSelection:
    def test_same_site_same_variant(self):
        profile = profile_for_domain("variantcheck.com", 321)
        if "doubleclick-conversion" not in profile.networks:
            profile = SiteProfile(domain="variantcheck.com", rank=321,
                                  networks=["doubleclick-conversion"])
        first = [r.url for r in build_page(profile).requests
                 if r.network == "doubleclick-conversion"]
        second = [r.url for r in build_page(profile).requests
                  if r.network == "doubleclick-conversion"]
        assert first == second

    def test_variants_spread_across_sites(self):
        urls = set()
        for i in range(60):
            profile = SiteProfile(domain=f"spread{i}.com", rank=i + 10,
                                  networks=["doubleclick-conversion"])
            for request in build_page(profile).requests:
                if request.network == "doubleclick-conversion":
                    urls.add(request.url.split("?")[0])
        # Five variants exist; a 60-site sample must hit several.
        assert len(urls) >= 4
