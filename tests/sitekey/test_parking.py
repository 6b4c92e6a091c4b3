"""Unit tests for parking services and the Table 3 zone scan."""

import pytest

from repro.sitekey.parking import (
    PARKING_SERVICES,
    ParkedDomainServer,
    ZoneEntry,
    ZoneScanner,
    synthesize_zone,
)
from repro.sitekey.protocol import verify_presented_key
from repro.web.http import (
    CURL_USER_AGENT,
    DEFAULT_USER_AGENT,
    HttpClient,
    HttpRequest,
    HttpResponse,
    Headers,
)

KEY_BITS = 128  # fast, protocol-identical


def service(name):
    return next(s for s in PARKING_SERVICES if s.name == name)


class TestServiceCatalog:
    def test_five_services(self):
        assert len(PARKING_SERVICES) == 5

    def test_table3_domain_counts(self):
        counts = {s.name: s.com_domains for s in PARKING_SERVICES}
        assert counts == {
            "Sedo": 1_060_129,
            "ParkingCrew": 368_703,
            "RookMedia": 949,
            "Uniregistry": 1_246_359,
            "Digimedia": 25,
        }

    def test_table3_total_matches_paper(self):
        # Table 3's total row sums all five services (RookMedia included
        # even though its sitekey was removed in Sept 2014).
        assert sum(s.com_domains for s in PARKING_SERVICES) == 2_676_165

    def test_rookmedia_removed(self):
        assert not service("RookMedia").active
        assert service("Sedo").active

    def test_distinct_deterministic_keys(self):
        keys = {s.name: s.keypair(bits=KEY_BITS).n
                for s in PARKING_SERVICES}
        assert len(set(keys.values())) == 5
        assert service("Sedo").keypair(bits=KEY_BITS).n == keys["Sedo"]


class TestZoneSynthesis:
    def test_scaled_counts(self):
        zone = synthesize_zone(scale_divisor=10_000, noise_domains=100)
        sedo_ns = service("Sedo").nameservers[0]
        sedo = [e for e in zone if sedo_ns in e.nameservers]
        # 1,060,129 // 10,000 = 106, plus the 8 typo domains.
        assert len(sedo) == 106 + 8

    def test_noise_domains_present(self):
        zone = synthesize_zone(scale_divisor=100_000, noise_domains=50)
        scanner = ZoneScanner(key_bits=KEY_BITS)
        noise = [e for e in zone if scanner.service_for_entry(e) is None]
        assert len(noise) == 50

    def test_deterministic(self):
        a = synthesize_zone(scale_divisor=50_000, noise_domains=10, seed=1)
        b = synthesize_zone(scale_divisor=50_000, noise_domains=10, seed=1)
        assert a == b

    def test_every_service_represented(self):
        zone = synthesize_zone(scale_divisor=2_000_000, noise_domains=0)
        scanner = ZoneScanner(key_bits=KEY_BITS)
        names = {scanner.service_for_entry(e).name for e in zone
                 if scanner.service_for_entry(e)}
        assert names == {s.name for s in PARKING_SERVICES}


class TestParkedDomainServer:
    def _get(self, server, host="parked-x.com", ua=None):
        handler = server.handler()
        client = HttpClient(lambda h: handler if h == host else None)
        if ua:
            client.user_agent = ua
        return client.get(f"http://{host}/")

    def test_sitekey_in_header_and_page(self):
        server = ParkedDomainServer(service("Sedo"), key_bits=KEY_BITS)
        response = self._get(server)
        assert response.adblock_key_header
        assert response.body.root.get("data-adblockkey") == \
            response.adblock_key_header

    def test_parked_page_has_ad_links(self):
        server = ParkedDomainServer(service("Sedo"), key_bits=KEY_BITS)
        response = self._get(server)
        assert len(response.body.ad_elements()) == 6

    def test_parkingcrew_403_for_curl(self):
        server = ParkedDomainServer(service("ParkingCrew"),
                                    key_bits=KEY_BITS)
        response = self._get(server, ua=CURL_USER_AGENT)
        assert response.status == 403

    def test_parkingcrew_serves_browsers(self):
        server = ParkedDomainServer(service("ParkingCrew"),
                                    key_bits=KEY_BITS)
        assert self._get(server).ok

    def test_uniregistry_cookie_round_trip(self):
        server = ParkedDomainServer(service("Uniregistry"),
                                    key_bits=KEY_BITS)
        response = self._get(server)  # client follows the redirect
        assert response.ok
        assert response.adblock_key_header

    def test_uniregistry_sitekey_verifies_at_lander(self):
        # The cookie-redirect dance ends on /lander, which the key signs.
        server = ParkedDomainServer(service("Uniregistry"),
                                    key_bits=KEY_BITS)
        response = self._get(server, host="parked-uni.com")
        assert verify_presented_key(
            response.adblock_key_header, "/lander", "parked-uni.com",
            DEFAULT_USER_AGENT).valid

    def test_parkingcrew_withholds_sitekey_from_curl(self):
        server = ParkedDomainServer(service("ParkingCrew"),
                                    key_bits=KEY_BITS)
        assert self._get(server, ua=CURL_USER_AGENT).adblock_key_header \
            is None
        response = self._get(server, host="parked-crew.com")
        assert verify_presented_key(
            response.adblock_key_header, "/", "parked-crew.com",
            DEFAULT_USER_AGENT).valid

    def test_sitekey_can_be_disabled(self):
        server = ParkedDomainServer(service("Sedo"), key_bits=KEY_BITS,
                                    present_sitekey=False)
        assert self._get(server).adblock_key_header is None


class TestZoneScan:
    @pytest.fixture(scope="class")
    def scan_results(self):
        zone = synthesize_zone(scale_divisor=20_000, noise_domains=100)
        return ZoneScanner(key_bits=KEY_BITS).scan(zone), zone

    def test_all_suspected_confirmed(self, scan_results):
        results, _ = scan_results
        for name, result in results.items():
            assert result.confirmed == result.suspected, name
            assert not result.rejected

    def test_scaled_totals_near_paper(self, scan_results):
        results, _ = scan_results
        total = sum(r.scaled_confirmed(20_000)
                    for r in results.values() if r.service.active)
        # Scaling granularity costs a little; the shape must hold.
        assert abs(total - 2_676_165) / 2_676_165 < 0.15

    def test_noise_not_counted(self, scan_results):
        results, zone = scan_results
        confirmed = sum(r.confirmed for r in results.values())
        assert confirmed < len(zone)

    def test_curl_scan_misses_parkingcrew(self):
        zone = synthesize_zone(scale_divisor=50_000, noise_domains=0)
        scanner = ZoneScanner(key_bits=KEY_BITS)
        results = scanner.scan(zone, user_agent=CURL_USER_AGENT)
        assert results["ParkingCrew"].confirmed == 0
        assert results["ParkingCrew"].suspected > 0
        assert results["Sedo"].confirmed > 0

    def test_hostile_server_rejected(self):
        zone = [ZoneEntry("sabotage-sedo.com",
                          service("Sedo").nameservers)]

        def hostile(request: HttpRequest) -> HttpResponse:
            return HttpResponse(status=200, headers=Headers(
                [("X-Adblock-Key", "FORGED_SIGNATURE")]))

        scanner = ZoneScanner(
            key_bits=KEY_BITS,
            resolver_overlay={"sabotage-sedo.com": hostile})
        results = scanner.scan(zone)
        assert results["Sedo"].confirmed == 0
        assert results["Sedo"].rejected == ["sabotage-sedo.com"]

    def test_dead_domain_rejected_not_fatal(self):
        zone = [
            ZoneEntry("dead-sedo.com", service("Sedo").nameservers),
            ZoneEntry("live-sedo.com", service("Sedo").nameservers),
        ]

        def dead(request):
            return HttpResponse(status=500, body="oops")

        scanner = ZoneScanner(key_bits=KEY_BITS,
                              resolver_overlay={"dead-sedo.com": dead})
        results = scanner.scan(zone)
        assert results["Sedo"].confirmed == 1
        assert "dead-sedo.com" in results["Sedo"].rejected
