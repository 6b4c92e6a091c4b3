"""Domain-parking services and the Table 3 zone-file study.

All 4 active sitekeys (plus the removed Rook Media one) belong to domain
parking services.  The paper identifies parked domains in two steps:

1. scan the ``.com`` TLD zone file for domains whose nameservers belong
   to a parking service (e.g. ``ns1.sedoparking.com``);
2. visit each suspected domain with automated tools and record only the
   ones that actually present a valid sitekey signature.

The scan must survive the services' quirks: ParkingCrew 403s curl-like
user agents, and Uniregistry requires a cookie round-trip (first visit
sets a cookie and redirects; only the cookie-bearing second request gets
the ad page with the signature).

The real zone has ~117M entries and the paper finds 2,676,165 parked
domains; we synthesise a *scaled* zone (default 1/1000) whose per-service
counts are the paper's counts divided by ``scale_divisor``, so the scan's
output multiplies back to the paper's Table 3 exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable

from repro.sitekey.protocol import make_header, verify_presented_key
from repro.sitekey.rsa import RsaPrivateKey, generate_keypair
from repro.web.dom import Document
from repro.web.http import (
    DEFAULT_USER_AGENT,
    Handler,
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    Headers,
)

__all__ = [
    "ParkingService",
    "PARKING_SERVICES",
    "ZoneEntry",
    "synthesize_zone",
    "ParkedDomainServer",
    "ZoneScanner",
    "ScanResult",
    "DEFAULT_SCALE_DIVISOR",
]

DEFAULT_SCALE_DIVISOR = 1000


@dataclass(frozen=True, slots=True)
class ParkingService:
    """One parking service from Table 3."""

    name: str
    whitelisted: date
    com_domains: int                 # the paper's .com domain count
    nameservers: tuple[str, ...]
    key_seed: int
    removed: date | None = None
    ua_403: bool = False             # 403 for curl-ish user agents
    cookie_redirect: bool = False    # Uniregistry's cookie round-trip

    @property
    def active(self) -> bool:
        return self.removed is None

    def keypair(self, bits: int = 512) -> RsaPrivateKey:
        """The service's (deterministic, weak) sitekey keypair."""
        return generate_keypair(bits=bits, seed=self.key_seed)


PARKING_SERVICES: tuple[ParkingService, ...] = (
    ParkingService(
        name="Sedo", whitelisted=date(2011, 11, 30), com_domains=1_060_129,
        nameservers=("ns1.sedoparking.com", "ns2.sedoparking.com"),
        key_seed=0x5ED0,
    ),
    ParkingService(
        name="ParkingCrew", whitelisted=date(2013, 5, 27),
        com_domains=368_703,
        nameservers=("ns1.parkingcrew.net", "ns2.parkingcrew.net"),
        key_seed=0xBC1,
        ua_403=True,
    ),
    ParkingService(
        name="RookMedia", whitelisted=date(2013, 7, 31), com_domains=949,
        nameservers=("ns1.rookdns.com", "ns2.rookdns.com"),
        key_seed=0x400C, removed=date(2014, 9, 16),
    ),
    ParkingService(
        name="Uniregistry", whitelisted=date(2013, 9, 25),
        com_domains=1_246_359,
        nameservers=("ns1.uniregistrymarket.link",
                     "ns2.uniregistrymarket.link"),
        key_seed=0x0141, cookie_redirect=True,
    ),
    ParkingService(
        name="Digimedia", whitelisted=date(2014, 7, 2), com_domains=25,
        nameservers=("ns1.digimedia.com", "ns2.digimedia.com"),
        key_seed=0xD161,
    ),
)


@dataclass(frozen=True, slots=True)
class ZoneEntry:
    """One delegation in the synthetic ``.com`` zone."""

    domain: str
    nameservers: tuple[str, ...]


_WORDS = (
    "shop", "online", "best", "cheap", "deal", "insurance", "credit",
    "photo", "celeb", "dating", "travel", "hotel", "poker", "game",
    "music", "movie", "news", "auto", "car", "loan", "pill", "diet",
    "gold", "coin", "crypto", "host", "cloud", "app", "web", "tech",
)

#: Misspellings of popular sites are frequently parked (the paper's
#: reddit.cm example); we park .com-side typos.
_TYPO_DOMAINS = (
    "redddit.com", "gooogle.com", "facebok.com", "yotube.com",
    "wikipedai.com", "amazonn.com", "twiter.com", "linkedn.com",
)


def synthesize_zone(
    services: Iterable[ParkingService] = PARKING_SERVICES,
    *,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    noise_domains: int = 2000,
    seed: int = 2015,
) -> list[ZoneEntry]:
    """Build the scaled synthetic zone file.

    Each service contributes ``max(1, com_domains // scale_divisor)``
    parked delegations; ``noise_domains`` non-parked delegations (random
    registrar nameservers) are interleaved, plus the typo-domain corpus
    (assigned to Sedo, mirroring the paper's reddit example).  The order
    is shuffled deterministically — zone files are not sorted by owner.
    """
    rng = random.Random(seed)
    entries: list[ZoneEntry] = []
    for service in services:
        count = max(1, service.com_domains // scale_divisor)
        prefix = service.name.lower()
        for i in range(count):
            word = rng.choice(_WORDS)
            word2 = rng.choice(_WORDS)
            domain = f"{word}{word2}{i}-{prefix[:4]}.com"
            entries.append(ZoneEntry(domain=domain,
                                     nameservers=service.nameservers))
    sedo = next(s for s in services if s.name == "Sedo")
    for typo in _TYPO_DOMAINS:
        entries.append(ZoneEntry(domain=typo, nameservers=sedo.nameservers))
    for i in range(noise_domains):
        word = rng.choice(_WORDS)
        ns = (f"ns1.registrar{i % 40}.com", f"ns2.registrar{i % 40}.com")
        entries.append(ZoneEntry(domain=f"{word}{i}-site.com",
                                 nameservers=ns))
    rng.shuffle(entries)
    return entries


class ParkedDomainServer:
    """HTTP behaviour of one parking service's domains.

    Produces a handler for any domain parked with the service; the
    handler enforces the service's countermeasures and attaches the
    sitekey proof to successful responses (both the ``X-Adblock-Key``
    header and the page's ``data-adblockkey`` attribute).
    """

    def __init__(self, service: ParkingService, *, key_bits: int = 512,
                 present_sitekey: bool = True) -> None:
        self.service = service
        self._key = service.keypair(bits=key_bits)
        self.present_sitekey = present_sitekey

    def handler(self) -> Handler:
        def handle(request: HttpRequest) -> HttpResponse:
            host = request.url.host
            if self.service.ua_403 and _looks_like_tool(request.user_agent):
                return HttpResponse(status=403, body="Forbidden")
            if self.service.cookie_redirect and "pk_session" not in request.cookies:
                return HttpResponse(
                    status=302,
                    redirect_to=f"http://{host}/lander",
                    set_cookies={"pk_session": "1"},
                )
            doc = _parked_page(host, self.service.name)
            headers = Headers()
            if self.present_sitekey:
                header = make_header(
                    request.url.full_path, host, request.user_agent,
                    self._key)
                headers.set("X-Adblock-Key", header)
                doc.root.attributes["data-adblockkey"] = header
            return HttpResponse(status=200, headers=headers, body=doc)

        return handle


def _looks_like_tool(user_agent: str) -> bool:
    lowered = user_agent.lower()
    return (not lowered
            or any(tool in lowered
                   for tool in ("curl", "wget", "python", "scrapy")))


def _parked_page(host: str, service_name: str) -> Document:
    doc = Document(url=f"http://{host}/")
    listing = doc.body.new_child("div", class_="related-links")
    for i in range(6):
        link = listing.new_child("a", class_="parked-ad",
                                 href=f"http://{host}/click?{i}")
        link.ad_label = f"{service_name.lower()}-parked-link-{i}"
        link.text = f"Sponsored listing {i}"
    doc.body.new_child("div", class_="domain-for-sale").text = (
        f"{host} may be for sale")
    return doc


@dataclass(slots=True)
class ScanResult:
    """Outcome of scanning the zone for one service."""

    service: ParkingService
    suspected: int = 0
    confirmed: int = 0
    rejected: list[str] = field(default_factory=list)

    def scaled_confirmed(self, scale_divisor: int) -> int:
        return self.confirmed * scale_divisor


class ZoneScanner:
    """The two-step Table 3 measurement.

    ``resolver_overlay`` lets tests inject broken or hostile servers for
    specific domains.  The scanner uses a browser user-agent (learned the
    hard way, per the paper) and a cookie-carrying client.
    """

    def __init__(
        self,
        services: Iterable[ParkingService] = PARKING_SERVICES,
        *,
        key_bits: int = 512,
        resolver_overlay: dict[str, Handler] | None = None,
    ) -> None:
        self.services = tuple(services)
        self._servers = {
            service.name: ParkedDomainServer(service, key_bits=key_bits)
            for service in self.services
        }
        self._ns_to_service = {
            ns: service
            for service in self.services
            for ns in service.nameservers
        }
        self._overlay = dict(resolver_overlay or {})
        self._zone_ns: dict[str, tuple[str, ...]] = {}

    def service_for_entry(self, entry: ZoneEntry) -> ParkingService | None:
        """Step 1: nameserver attribution, or None for non-parked."""
        for ns in entry.nameservers:
            service = self._ns_to_service.get(ns)
            if service is not None:
                return service
        return None

    def _resolve(self, host: str) -> Handler | None:
        if host in self._overlay:
            return self._overlay[host]
        nameservers = self._zone_ns.get(host)
        if nameservers is None:
            return None
        for ns in nameservers:
            service = self._ns_to_service.get(ns)
            if service is not None:
                return self._servers[service.name].handler()
        return None

    def scan(self, zone: Iterable[ZoneEntry], *,
             user_agent: str = DEFAULT_USER_AGENT) -> dict[str, ScanResult]:
        """Run the full two-step scan over ``zone``.

        Returns per-service :class:`ScanResult`s keyed by service name.
        A suspected domain is *confirmed* only when the visit (with
        redirects and cookies) yields a response whose sitekey signature
        verifies — exactly the paper's acceptance criterion.
        ``user_agent`` is what the scan presents; the countermeasure
        study passes curl's, which ParkingCrew answers with a 403.
        """
        results = {s.name: ScanResult(service=s) for s in self.services}
        zone_list = list(zone)
        self._zone_ns = {e.domain: e.nameservers for e in zone_list}
        client = HttpClient(self._resolve, user_agent=user_agent)

        for entry in zone_list:
            service = self.service_for_entry(entry)
            if service is None:
                continue
            result = results[service.name]
            result.suspected += 1
            try:
                response = client.get(f"http://{entry.domain}/")
            except HttpError:
                result.rejected.append(entry.domain)
                continue
            if not response.ok:
                result.rejected.append(entry.domain)
                continue
            verification = verify_presented_key(
                response.adblock_key_header,
                "/lander" if service.cookie_redirect else "/",
                entry.domain,
                client.user_agent,
            )
            if verification.valid:
                result.confirmed += 1
            else:
                result.rejected.append(entry.domain)
        return results
