"""Synthetic site generation: profiles and page synthesis.

Every surveyed domain has a :class:`SiteProfile` describing its ad stack:
which catalog networks it deploys, which first-party ad elements it
embeds, whether it participates in the Acceptable Ads program as an
explicitly whitelisted publisher (and with which *restricted* filters),
and quirky behaviours the paper observed — ask.com showing more ads
without cookies, imgur.com swapping ads when it detects Adblock Plus.

:func:`build_page` turns a profile into a concrete page: a DOM document
plus the list of subresource requests the browser will issue.  The
randomness is a per-domain deterministic stream, so repeated visits to
the same domain yield the same page unless browser state (cookies,
detected-adblock) differs — which is precisely the instability the
paper reports.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.filters.options import ContentType
from repro.web.adnetworks import NETWORK_CATALOG, network
from repro.web.dom import Document

__all__ = [
    "PageRequest",
    "SiteProfile",
    "BuiltPage",
    "build_page",
    "profile_for_domain",
    "PINNED_PROFILES",
    "pinned_profile",
    "INERT_FRACTION",
    "AD_LIGHT_FRACTION",
]

#: Fraction of surveyed sites that trigger no filters at all — the
#: paper's 1,044 of 5,000 (non-English sites outside EasyList's purview,
#: or sites needing interaction before any ad loads).
INERT_FRACTION = 0.2088

#: Fraction of ad-bearing sites that use no whitelisted trackers (only
#: blocked-only networks); calibrates the 59%-of-top-5K headline.
AD_LIGHT_FRACTION = 0.239


@dataclass(frozen=True, slots=True)
class PageRequest:
    """One subresource request a page will issue when loaded.

    ``host`` is the host of ``url``, known when the URL is generated:
    a catalog resource's fixed host, or ``www.<domain>`` for the page's
    own requests (those carry no ``network``).
    """

    url: str
    host: str
    content_type: ContentType
    network: str = ""


@dataclass(slots=True)
class SiteProfile:
    """The ad/tracking configuration of one domain."""

    domain: str
    rank: int
    category: str = "general"
    networks: list[str] = field(default_factory=list)
    #: Restricted whitelist filters this publisher negotiated with Eyeo
    #: (empty for non-participants).  These exact texts also appear in
    #: the generated whitelist.
    whitelist_filters: tuple[str, ...] = ()
    #: First-party ad elements: (tag, attr, value, ad_label).
    first_party_ads: tuple[tuple[str, str, str, str], ...] = ()
    #: Extra multiplier on per-resource repeat counts (heavy ad pages).
    ad_intensity: float = 1.0
    inert: bool = False
    cookie_sensitive: bool = False   # more ads without cookies (ask.com)
    adblock_detecting: bool = False  # swaps ads when ABP present (imgur)

    @property
    def is_whitelisted_publisher(self) -> bool:
        return bool(self.whitelist_filters)


@dataclass(slots=True)
class BuiltPage:
    """A synthesised page: the DOM plus its subresource requests."""

    document: Document
    requests: list[PageRequest]
    profile: SiteProfile


# ---------------------------------------------------------------------------
# Pinned publisher profiles — the domains the paper names.  Their
# restricted whitelist filters are included verbatim in the generated
# whitelist (history.generator imports PINNED_PROFILES).
# ---------------------------------------------------------------------------

def _profiles() -> dict[str, SiteProfile]:
    profiles = [
        SiteProfile(
            domain="reddit.com", rank=31, category="social",
            networks=["adzerk", "doubleclick-conversion", "gstatic"],
            whitelist_filters=(
                "reddit.com#@##ad_main",
                "@@||adzerk.net/reddit/$subdocument,document,"
                "domain=reddit.com",
                "@@||static.adzerk.net^$third-party,domain=reddit.com",
            ),
            first_party_ads=(
                ("div", "id", "siteTable_organic", "reddit-sponsored-link"),
            ),
        ),
        SiteProfile(
            domain="google.com", rank=1, category="search",
            networks=["gstatic"],
            whitelist_filters=(
                "@@||google.com/ads/search/module/ads/*/search.js"
                "$script,domain=google.com",
                "@@||google.com/afs/$script,subdocument,domain=google.com",
                "@@||googleadservices.com^$third-party,domain=google.com",
            ),
            first_party_ads=(
                ("div", "class", "ads-ad", "google-search-ad"),
                ("div", "id", "tads", "google-top-ads"),
            ),
        ),
        SiteProfile(
            domain="youtube.com", rank=3, category="video",
            # Not explicitly whitelisted, yet activates unrestricted
            # whitelist filters — one of Figure 6's 12 such domains.
            networks=["doubleclick-conversion", "gstatic",
                      "doubleclick-pagead"],
        ),
        SiteProfile(
            domain="ask.com", rank=38, category="search",
            networks=["adsense-for-search", "gstatic",
                      "google-adservices"],
            whitelist_filters=(
                "@@||ask.com^$elemhide",
                "@@||us.ask.com^$elemhide",
                "@@||uk.ask.com^$elemhide",
                "@@||google.com/adsense/search/ads.js$domain=ask.com",
            ),
            first_party_ads=(
                ("div", "class", "ad-listing", "ask-search-ads"),
            ),
            cookie_sensitive=True,
            ad_intensity=2.0,
        ),
        SiteProfile(
            domain="about.com", rank=49, category="reference",
            networks=["google-adservices", "doubleclick-pagead", "gstatic"],
            whitelist_filters=(
                "@@||about.com^$elemhide",
                "@@||google.com/adsense/search/ads.js$domain=about.com",
                "@@||z.about.com/m/a08.js$script,domain=about.com",
            ),
            ad_intensity=1.6,
        ),
        SiteProfile(
            domain="walmart.com", rank=45, category="shopping",
            networks=["doubleclick-conversion", "google-adservices",
                      "bing-conversion", "criteo"],
            whitelist_filters=(
                "@@||walmart.com/catalog/ad.js$script,domain=walmart.com",
                "@@||i5.walmartimages.com/dfw/ads/$image,domain=walmart.com",
            ),
            first_party_ads=(
                ("div", "class", "wm-sponsored", "walmart-sponsored"),
            ),
        ),
        SiteProfile(
            domain="toyota.com", rank=1916, category="shopping",
            # The survey's most-activating site: 83 total matches across
            # 8 distinct filters (Section 5.1).
            networks=["doubleclick-conversion", "google-adservices",
                      "gstatic", "googlesyndication", "bing-conversion",
                      "facebook-conversion", "criteo", "adroll"],
            ad_intensity=8.6,
        ),
        SiteProfile(
            domain="imgur.com", rank=36, category="viral",
            networks=["doubleclick-conversion", "gstatic"],
            whitelist_filters=(
                "@@||imgur.com/ads.js$script,domain=imgur.com",
            ),
            adblock_detecting=True,
            first_party_ads=(
                ("div", "class", "promoted-hover", "imgur-promoted"),
            ),
        ),
        SiteProfile(
            domain="cracked.com", rank=731, category="humor",
            networks=["doubleclick-pagead", "google-adservices",
                      "outbrain"],
            whitelist_filters=(
                "@@||cracked.com/ads/topbar.js$script,domain=cracked.com",
            ),
            first_party_ads=(
                ("div", "id", "topbar-ad", "cracked-top-bar"),
            ),
        ),
        SiteProfile(
            domain="viralnova.com", rank=882, category="viral",
            networks=["taboola", "outbrain", "doubleclick-conversion"],
            whitelist_filters=(
                "@@||viralnova.com/grid/sponsored/$image,"
                "domain=viralnova.com",
            ),
            first_party_ads=(
                ("div", "class", "grid-item sponsored", "viralnova-grid"),
            ),
            ad_intensity=1.8,
        ),
        SiteProfile(
            domain="utopia-game.com", rank=24813, category="games",
            networks=["generic-banner"],
            whitelist_filters=(
                "@@||utopia-game.com/shared/adbar.gif$image,"
                "domain=utopia-game.com",
            ),
            first_party_ads=(
                ("img", "class", "nav-adbar", "utopia-nav-bar-ad"),
            ),
        ),
        SiteProfile(
            domain="isitup.org", rank=91243, category="webservice",
            networks=[],
            whitelist_filters=(
                "@@||isitup.org/static/sponsor.png$image,domain=isitup.org",
            ),
            first_party_ads=(
                ("img", "id", "sponsor", "isitup-sponsor"),
            ),
        ),
        SiteProfile(
            domain="amazon.com", rank=5, category="shopping",
            networks=["amazon-adsystem", "doubleclick-conversion"],
            whitelist_filters=(
                "@@||amazon.com/gp/product/ads/$subdocument,"
                "domain=amazon.com",
            ),
        ),
        SiteProfile(
            domain="bing.com", rank=22, category="search",
            networks=["bing-conversion", "gstatic"],
            whitelist_filters=(
                "@@||bing.com/sa/ads.js$script,domain=bing.com",
                "@@||bat.bing.com^$domain=bing.com",
            ),
            first_party_ads=(
                ("div", "class", "sb_ad", "bing-search-ad"),
            ),
        ),
        SiteProfile(
            domain="yahoo.com", rank=4, category="search",
            networks=["yahoo-gemini", "doubleclick-conversion", "gstatic"],
            whitelist_filters=(
                "@@||gemini.yahoo.com^$domain=yahoo.com",
            ),
        ),
        SiteProfile(
            domain="sina.com.cn", rank=13, category="news",
            # Elided from Figure 6 "for ease of presentation" because its
            # match count dwarfs the rest.
            networks=["generic-banner", "doubleclick-conversion",
                      "openx", "rubicon", "pubmatic", "zedo"],
            ad_intensity=14.0,
        ),
        SiteProfile(
            domain="comcast.net", rank=212, category="isp",
            networks=["adsense-for-search", "doubleclick-conversion"],
            # Figure 11's A29 group, verbatim shape.
            whitelist_filters=(
                "@@||google.com/adsense/search/ads.js"
                "$domain=search.comcast.net|comcast.net",
                "@@||google.com/ads/search/module/ads/*/search.js"
                "$script,domain=search.comcast.net",
                "@@||google.com/afs/$script,subdocument,document,"
                "domain=search.comcast.net|comcast.net",
            ),
        ),
        SiteProfile(
            domain="twcc.com", rank=9221, category="isp",
            networks=["adsense-for-search"],
            whitelist_filters=(
                "@@||twcc.com^$elemhide",
                "@@||google.com/adsense/search/ads.js$domain=twcc.com",
                "@@||google.com/ads/search/module/ads/*/search.js"
                "$script,domain=twcc.com",
            ),
        ),
        SiteProfile(
            domain="kayak.com", rank=704, category="travel",
            networks=["doubleclick-conversion", "google-adservices"],
            whitelist_filters=(
                "@@||kayak.com^$elemhide",
                "@@||kayak.com/ads/inline.js$script,domain=kayak.com",
            ),
        ),
        SiteProfile(
            domain="golem.de", rank=3428, category="news",
            networks=["adsense-for-search", "doubleclick-pagead"],
            whitelist_filters=(
                "@@||google.com/ads/search/module/ads/*/search.js"
                "$domain=suche.golem.de",
            ),
        ),
        SiteProfile(
            domain="ebay.com", rank=9, category="shopping",
            networks=["doubleclick-conversion", "google-adservices",
                      "bing-conversion"],
            whitelist_filters=(
                "@@||ebay.com/rover/ads/$image,domain=ebay.com",
            ),
        ),
        SiteProfile(
            domain="wikipedia.org", rank=7, category="reference",
            networks=[], inert=True,  # ad-free: never triggers anything
        ),
        SiteProfile(
            domain="craigslist.org", rank=47, category="classifieds",
            networks=[], inert=True,
        ),
    ]
    return {p.domain: p for p in profiles}


PINNED_PROFILES: dict[str, SiteProfile] = _profiles()

_CATEGORIES = (
    "news", "shopping", "social", "video", "games", "reference",
    "viral", "search", "travel", "isp", "humor", "general", "tech",
    "sports", "finance", "adult", "classifieds",
)
_CATEGORY_WEIGHTS = (
    12, 14, 6, 5, 7, 6, 3, 2, 4, 2, 2, 18, 6, 5, 4, 3, 1,
)


def pinned_profile(domain: str) -> SiteProfile | None:
    return PINNED_PROFILES.get(domain)


def _domain_rng(domain: str, salt: str = "") -> random.Random:
    digest = hashlib.sha256(f"{salt}:{domain}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def profile_for_domain(domain: str, rank: int,
                       group_index: int = 0,
                       category: str | None = None) -> SiteProfile:
    """Deterministically derive the profile of an arbitrary domain.

    Pinned (paper-named) domains return their hand-written profiles;
    everything else gets a profile sampled from the calibrated
    distributions, keyed by the domain name alone so the same domain
    always behaves identically.
    """
    pinned = pinned_profile(domain)
    if pinned is not None:
        return pinned

    rng = _domain_rng(domain, salt="profile")
    if category is None:
        category = rng.choices(_CATEGORIES, weights=_CATEGORY_WEIGHTS)[0]

    if rng.random() < INERT_FRACTION:
        return SiteProfile(domain=domain, rank=rank, category=category,
                           inert=True)

    ad_light = rng.random() < AD_LIGHT_FRACTION
    networks: list[str] = []
    for net in NETWORK_CATALOG:
        if ad_light and net.whitelist_filters:
            continue
        rate = net.rate_for_group(group_index)
        rate *= net.category_bias.get(category, 1.0)
        if rng.random() < min(rate, 0.97):
            networks.append(net.name)

    # Heavy-tailed ad intensity: most sites request each resource once
    # or twice; a small tail requests them many times (Figure 7's 5% of
    # sites with >= 12 non-distinct exception matches).
    intensity = 1.0
    roll = rng.random()
    if roll > 0.97:
        intensity = 4.0 + 6.0 * rng.random()
    elif roll > 0.85:
        intensity = 2.0 + 2.0 * rng.random()

    # Every non-inert site triggers *something* — the paper defines the
    # inert 1,044 as exactly the sites with zero activations, so active
    # sites with an otherwise empty stack fall back to a blocked banner.
    if not networks:
        networks.append("generic-banner")

    first_party: tuple[tuple[str, str, str, str], ...] = ()
    if not ad_light and rng.random() < 0.18:
        banner_class = rng.choice(
            ("banner-ad", "ad-banner", "adsbox", "ad-slot"))
        first_party = (("img", "class", banner_class,
                        f"{domain}-house-banner"),)

    return SiteProfile(domain=domain, rank=rank, category=category,
                       networks=networks, ad_intensity=intensity,
                       first_party_ads=first_party)


# ---------------------------------------------------------------------------
# Page synthesis
# ---------------------------------------------------------------------------

def build_page(
    profile: SiteProfile,
    *,
    has_cookies: bool = True,
    adblock_visible: bool = False,
) -> BuiltPage:
    """Synthesise the landing page for ``profile``.

    ``has_cookies`` models repeat visits (ask.com shows *more* ads to
    cookie-less first-time visitors); ``adblock_visible`` models sites
    that detect Adblock Plus and swap in different advertising.
    """
    url = f"http://www.{profile.domain}/"
    doc = Document(url=url)
    requests: list[PageRequest] = []

    if profile.inert:
        _add_content(doc)
        return BuiltPage(document=doc, requests=requests, profile=profile)

    rng = _domain_rng(profile.domain, salt="page")
    _add_content(doc)

    intensity = profile.ad_intensity
    if profile.cookie_sensitive and not has_cookies:
        intensity *= 1.8
    network_names = list(profile.networks)
    if profile.adblock_detecting and adblock_visible:
        # Swap third-party stacks for first-party "sponsored" content.
        network_names = [n for n in network_names
                         if n in ("gstatic", "doubleclick-conversion")]

    for name in network_names:
        net = network(name)
        for resource in net.resources:
            repeat = _scaled_repeat(resource.repeat, intensity, rng)
            variant = (rng.choice(resource.variants)
                       if resource.variants else "")
            for i in range(repeat):
                req_url = resource.url_template.format(
                    host=profile.domain, variant=variant)
                if i > 0:
                    sep = "&" if "?" in req_url else "?"
                    req_url = f"{req_url}{sep}slot={i}"
                requests.append(PageRequest(
                    url=req_url,
                    host=resource.host,
                    content_type=resource.content_type,
                    network=net.name,
                ))
                if resource.element is not None:
                    tag, attr, value = resource.element
                    el = doc.body.new_child(tag)
                    el.attributes[attr] = value
                    el.ad_label = f"{net.name}-unit"

    for tag, attr, value, label in profile.first_party_ads:
        el = doc.body.new_child(tag)
        el.attributes[attr] = value
        el.ad_label = label

    # Benign subresources every real page has (never match filters).
    # They start with the page URL, so they share the page's host.
    own_host = f"www.{profile.domain}"
    requests.append(PageRequest(
        url=f"{url}static/main.css", host=own_host,
        content_type=ContentType.STYLESHEET))
    requests.append(PageRequest(
        url=f"{url}static/app.js", host=own_host,
        content_type=ContentType.SCRIPT))

    return BuiltPage(document=doc, requests=requests, profile=profile)


def _scaled_repeat(base: int, intensity: float, rng: random.Random) -> int:
    scaled = base * intensity
    floor = int(scaled)
    if rng.random() < (scaled - floor):
        floor += 1
    return max(1, floor)


def _add_content(doc: Document) -> None:
    main = doc.body.new_child("div", id="content")
    main.new_child("h1").text = "Welcome"
    for i in range(3):
        para = main.new_child("p", class_="story")
        para.text = f"Article paragraph {i}."
