"""Ad-network models: the shared catalog behind whitelist and web corpus.

The survey's headline numbers (Table 4, Figures 6–8) arise from the
*joint* distribution of (a) which exception filters the whitelist
contains and (b) which ad networks each site deploys.  To keep the two
sides consistent, this module is the single source of truth: the
whitelist generator emits each network's exception filters, and the site
generator wires each site's pages to the networks its profile names.

Calibration comes straight from the paper's Section 5:

* ``@@||stats.g.doubleclick.net^$script,image`` — conversion tracking —
  fired on 1,559 of 5,000 top sites (31.2%);
* ``@@||googleadservices.com^$third-party`` — AdSense — 1,535 sites;
* ``@@||gstatic.com^$third-party`` — Google static resources (needless:
  EasyList never blocked them) — 1,282 sites;
* the undocumented A59 AdSense-for-search filter — 78 sites (rank 9);
* ``#@##influads_block`` — the only unrestricted element exception —
  30 sites.

``deploy_rate`` is the per-site Bernoulli probability within the top-5K
group; ``strata_scale`` scales it for the lower-popularity groups
(Figure 8 shows most whitelist filters skew toward popular sites, while
one conversion tracker peaks in the 100K–1M group).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.filters.options import ContentType
from repro.web.url import parse_url

__all__ = [
    "AdResource",
    "AdNetwork",
    "NETWORK_CATALOG",
    "network",
    "blocking_networks",
    "whitelisted_networks",
]


@dataclass(frozen=True, slots=True)
class AdResource:
    """One resource a network adds to a page.

    ``url_template`` may contain ``{host}`` (the embedding page's host)
    and ``{variant}``, but only in its path or query: the network serves
    every page from one fixed host, parsed once into :attr:`host` when
    the resource is defined.  A placeholder in the netloc raises
    :class:`ValueError`.  ``element`` optionally describes a DOM element
    injected alongside the request: ``(tag, attr_name, attr_value)``.
    """

    url_template: str
    content_type: ContentType
    element: tuple[str, str, str] | None = None
    repeat: int = 1  # how many times a page typically requests it
    #: Per-site path variants substituted for ``{variant}``.  Real ad
    #: networks serve from many endpoints; EasyList blocks them with
    #: many narrow filters while one broad whitelist exception covers
    #: them all — which is why the survey's five most-activated filters
    #: are all whitelist filters (Figure 8).
    variants: tuple[str, ...] = ()
    #: The request host of every URL the template formats.
    host: str = field(init=False)

    def __post_init__(self) -> None:
        rest = self.url_template.partition("://")[2] or self.url_template
        netloc = rest.partition("/")[0]
        if "{" in netloc or "}" in netloc:
            raise ValueError(
                f"url_template {self.url_template!r}: placeholders may "
                f"appear only in the path or query, not in the host")
        object.__setattr__(self, "host", parse_url(self.url_template).host)


@dataclass(frozen=True, slots=True)
class AdNetwork:
    """An ad network / tracker and the filters that govern it.

    ``whitelist_filters`` are the Acceptable Ads exception filters the
    network's participation adds; ``blocking_filters`` are the
    EasyList-side filters that would block it.  Networks that EasyList
    does not block at all (gstatic) have whitelist filters that activate
    *needlessly* — a paper finding we must reproduce.
    """

    name: str
    resources: tuple[AdResource, ...]
    blocking_filters: tuple[str, ...] = ()
    whitelist_filters: tuple[str, ...] = ()
    deploy_rate: float = 0.0
    strata_scale: tuple[float, float, float] = (0.6, 0.45, 0.3)
    category_bias: dict[str, float] = field(default_factory=dict)

    def rate_for_group(self, group_index: int) -> float:
        """Deployment probability for sample group 0..3 (0 = top 5K)."""
        if group_index == 0:
            return self.deploy_rate
        return self.deploy_rate * self.strata_scale[group_index - 1]


_T = ContentType

NETWORK_CATALOG: tuple[AdNetwork, ...] = (
    # -- Table 4's head: Google's conversion/ads/static trio -------------
    AdNetwork(
        name="doubleclick-conversion",
        resources=(AdResource(
            "http://stats.g.doubleclick.net/{variant}", _T.SCRIPT,
            variants=("dc.js", "r/collect", "pixel/p.gif",
                      "conv/track.js", "ga/audiences.js")),),
        blocking_filters=(
            "||stats.g.doubleclick.net/dc.js$third-party",
            "||stats.g.doubleclick.net/r/collect$third-party",
            "||stats.g.doubleclick.net/pixel/$third-party",
            "||stats.g.doubleclick.net/conv/$third-party",
            "||stats.g.doubleclick.net/ga/$third-party",
        ),
        whitelist_filters=("@@||stats.g.doubleclick.net^$script,image",),
        deploy_rate=0.53,
        strata_scale=(0.75, 0.6, 0.5),
        category_bias={"shopping": 1.35, "news": 1.1},
    ),
    AdNetwork(
        name="google-adservices",
        resources=(AdResource(
            "http://www.googleadservices.com/{variant}", _T.SCRIPT,
            variants=("pagead/conversion.js", "pagead/landing.js",
                      "aclk/convert.js",
                      "pagead/viewthroughconversion.js")),),
        blocking_filters=(
            "||googleadservices.com/pagead/conversion.js$third-party",
            "||googleadservices.com/pagead/landing$third-party",
            "||googleadservices.com/aclk/$third-party",
            "||googleadservices.com/pagead/viewthroughconversion"
            "$third-party",
        ),
        whitelist_filters=("@@||googleadservices.com^$third-party",),
        deploy_rate=0.5,
        strata_scale=(0.7, 0.55, 0.42),
        category_bias={"shopping": 1.4},
    ),
    AdNetwork(
        name="gstatic",
        resources=(AdResource(
            "http://fonts.gstatic.com/s/roboto/v15/font.woff",
            _T.OTHER),),
        # EasyList contains no gstatic blocking filters — the whitelist
        # entry is needless (Section 5.1 calls this out).
        blocking_filters=(),
        whitelist_filters=("@@||gstatic.com^$third-party",),
        deploy_rate=0.456,
        strata_scale=(0.8, 0.7, 0.55),
    ),
    AdNetwork(
        name="googlesyndication",
        resources=(AdResource(
            "http://pagead2.googlesyndication.com/{variant}",
            _T.SCRIPT,
            element=("div", "class", "google-ad"), repeat=2,
            variants=("pagead/show_ads.js", "pagead/js/adsbygoogle.js",
                      "simgad/banner.js")),),
        blocking_filters=(
            "||googlesyndication.com/pagead/show_ads$third-party",
            "||googlesyndication.com/pagead/js/$third-party",
            "||googlesyndication.com/simgad/$third-party",
        ),
        whitelist_filters=(
            "@@||pagead2.googlesyndication.com^$third-party",),
        deploy_rate=0.28,
        strata_scale=(0.72, 0.58, 0.45),
    ),
    AdNetwork(
        name="google-analytics-conversion",
        resources=(AdResource(
            "http://www.google-analytics.com/conversion/?cid={host}",
            _T.IMAGE),),
        blocking_filters=("||google-analytics.com/conversion/^",),
        # Conversion tracking that *peaks in the 100K–1M stratum*
        # (Figure 8's outlier filter).
        whitelist_filters=("@@||google-analytics.com/conversion/^$image",),
        deploy_rate=0.015,
        strata_scale=(1.2, 1.6, 2.4),
    ),
    AdNetwork(
        name="doubleclick-pagead",
        resources=(AdResource(
            "http://g.doubleclick.net/pagead/{variant}?client={host}",
            _T.SUBDOCUMENT,
            element=("iframe", "class", "dfp-slot"), repeat=2,
            variants=("ads", "adview")),),
        blocking_filters=(
            "||g.doubleclick.net/pagead/ads?$subdocument,third-party",
            "||g.doubleclick.net/pagead/adview$subdocument,third-party",
        ),
        whitelist_filters=(
            "@@||g.doubleclick.net/pagead/$subdocument,third-party",),
        deploy_rate=0.195,
        category_bias={"news": 1.3},
    ),
    AdNetwork(
        name="bing-conversion",
        resources=(AdResource(
            "http://bat.bing.com/action/0?ti={host}", _T.IMAGE),),
        blocking_filters=("||bat.bing.com^$third-party",),
        whitelist_filters=("@@||bat.bing.com^$image,third-party",),
        deploy_rate=0.09,
        category_bias={"shopping": 1.5},
    ),
    AdNetwork(
        name="facebook-conversion",
        resources=(AdResource(
            "http://www.facebook.com/tr?id=123&ev=PageView", _T.IMAGE),),
        blocking_filters=("||facebook.com/tr?$image,third-party",),
        whitelist_filters=("@@||facebook.com/tr?$image,third-party",),
        deploy_rate=0.055,
        category_bias={"shopping": 1.3, "social": 1.6},
    ),
    AdNetwork(
        name="adsense-for-search",
        resources=(AdResource(
            "http://www.google.com/adsense/search/ads.js", _T.SCRIPT),),
        blocking_filters=("||google.com/adsense/search/$script,third-party",),
        # A59's undocumented *unrestricted* AdSense-for-search exception
        # (Section 7): rank 9 in Table 4 with 78 activating domains.
        whitelist_filters=("@@||google.com/adsense/search/ads.js$script",),
        deploy_rate=0.028,
        strata_scale=(0.5, 0.35, 0.2),
        category_bias={"search": 3.0},
    ),
    AdNetwork(
        name="criteo",
        resources=(AdResource(
            "http://static.criteo.net/js/ld/ld.js", _T.SCRIPT,
            element=("div", "class", "criteo-banner")),),
        blocking_filters=("||criteo.net^$third-party",),
        whitelist_filters=("@@||static.criteo.net/js/ld/$script",),
        deploy_rate=0.03,
        category_bias={"shopping": 1.8},
    ),
    AdNetwork(
        name="amazon-adsystem",
        resources=(AdResource(
            "http://aax.amazon-adsystem.com/e/dtb/bid?src={host}",
            _T.SCRIPT),),
        blocking_filters=("||amazon-adsystem.com^$third-party",),
        whitelist_filters=("@@||aax.amazon-adsystem.com/e/dtb/$script",),
        deploy_rate=0.019,
        category_bias={"shopping": 1.7},
    ),
    AdNetwork(
        name="pagefair",
        resources=(
            AdResource("http://asset.pagefair.net/measure.js", _T.SCRIPT),
            AdResource("http://imp.admarketplace.net/imp?ad=1", _T.IMAGE,
                       element=("div", "class", "pagefair-unit")),
        ),
        blocking_filters=(
            "||pagefair.net^$third-party",
            "||admarketplace.net^$third-party",
        ),
        # The unrestricted PageFair trio quoted verbatim in Section 4.2.2.
        whitelist_filters=(
            "@@||pagefair.net^$third-party",
            "@@||tracking.admarketplace.net^$third-party",
            "@@||imp.admarketplace.net^$third-party",
        ),
        deploy_rate=0.016,
        strata_scale=(0.9, 0.8, 0.6),
    ),
    AdNetwork(
        name="quantserve",
        resources=(AdResource(
            "http://pixel.quantserve.com/pixel/p-123.gif", _T.IMAGE),),
        blocking_filters=("||quantserve.com^$third-party",),
        whitelist_filters=("@@||pixel.quantserve.com/pixel/$image",),
        deploy_rate=0.02,
    ),
    AdNetwork(
        name="scorecard",
        resources=(AdResource(
            "http://b.scorecardresearch.com/b?c1=2", _T.IMAGE),),
        blocking_filters=("||scorecardresearch.com^$third-party",),
        whitelist_filters=("@@||b.scorecardresearch.com/b?$image",),
        deploy_rate=0.018,
        category_bias={"news": 1.5},
    ),
    AdNetwork(
        name="twitter-conversion",
        resources=(AdResource(
            "http://analytics.twitter.com/i/adsct?txn=1", _T.IMAGE),),
        blocking_filters=("||analytics.twitter.com^$third-party",),
        whitelist_filters=("@@||analytics.twitter.com/i/adsct$image",),
        deploy_rate=0.013,
        category_bias={"social": 1.8},
    ),
    AdNetwork(
        name="outbrain",
        resources=(AdResource(
            "http://widgets.outbrain.com/outbrain.js", _T.SCRIPT,
            element=("div", "class", "ob-widget"), repeat=2),),
        blocking_filters=("||outbrain.com^$third-party",),
        whitelist_filters=("@@||widgets.outbrain.com/outbrain.js$script",),
        deploy_rate=0.012,
        category_bias={"news": 2.0, "viral": 2.5},
    ),
    AdNetwork(
        name="taboola",
        resources=(AdResource(
            "http://cdn.taboola.com/libtrc/loader.js", _T.SCRIPT,
            element=("div", "class", "trc-widget")),),
        blocking_filters=("||taboola.com^$third-party",),
        whitelist_filters=("@@||cdn.taboola.com/libtrc/$script",),
        deploy_rate=0.011,
        category_bias={"news": 1.8, "viral": 2.8},
    ),
    AdNetwork(
        name="yahoo-gemini",
        resources=(AdResource(
            "http://gemini.yahoo.com/bidRequest?dcn={host}", _T.SCRIPT),),
        blocking_filters=("||gemini.yahoo.com^$third-party",),
        whitelist_filters=("@@||gemini.yahoo.com/bidRequest$script",),
        deploy_rate=0.008,
    ),
    AdNetwork(
        name="influads",
        resources=(AdResource(
            "http://engine.influads.com/show/ad.js", _T.SCRIPT,
            element=("div", "id", "influads_block")),),
        blocking_filters=(
            "||influads.com^$third-party",
            "###influads_block",
        ),
        # Section 4.2.2: the request exception plus the *only*
        # unrestricted element exception in the whitelist.
        whitelist_filters=(
            "@@||influads.com^$script,image",
            "#@##influads_block",
        ),
        deploy_rate=0.0096,
        strata_scale=(1.0, 0.9, 0.7),
    ),
    AdNetwork(
        name="adroll",
        resources=(AdResource(
            "http://d.adroll.com/cm/index/out", _T.IMAGE),),
        blocking_filters=("||adroll.com^$third-party",),
        whitelist_filters=("@@||d.adroll.com/cm/$image",),
        deploy_rate=0.009,
        category_bias={"shopping": 1.6},
    ),
    # -- Blocked-only networks (EasyList hits, no whitelist entry) ------
    AdNetwork(
        name="adzerk",
        resources=(AdResource(
            "http://static.adzerk.net/ads.html?sr={host}", _T.SUBDOCUMENT,
            element=("iframe", "id", "ad_main")),),
        blocking_filters=("||adzerk.net^$third-party",),
        deploy_rate=0.02,
    ),
    AdNetwork(
        name="openx",
        resources=(AdResource(
            "http://ox-d.openx.net/w/1.0/jstag", _T.SCRIPT,
            element=("div", "class", "oxad")),),
        blocking_filters=("||openx.net^$third-party",),
        deploy_rate=0.06,
    ),
    AdNetwork(
        name="rubicon",
        resources=(AdResource(
            "http://ads.rubiconproject.com/header/1234.js", _T.SCRIPT),),
        blocking_filters=("||rubiconproject.com^$third-party",),
        deploy_rate=0.07,
    ),
    AdNetwork(
        name="pubmatic",
        resources=(AdResource(
            "http://ads.pubmatic.com/AdServer/js/gshowad.js", _T.SCRIPT,
            element=("div", "class", "pubmatic-ad"), repeat=2),),
        blocking_filters=("||pubmatic.com^$third-party",),
        deploy_rate=0.06,
    ),
    AdNetwork(
        name="casalemedia",
        resources=(AdResource(
            "http://as.casalemedia.com/headertag?id=9", _T.SCRIPT),),
        blocking_filters=("||casalemedia.com^$third-party",),
        deploy_rate=0.05,
    ),
    AdNetwork(
        name="zedo",
        resources=(AdResource(
            "http://d3.zedo.com/jsc/d3/fo.js", _T.SCRIPT,
            element=("div", "class", "zedo-unit")),),
        blocking_filters=("||zedo.com^$third-party",),
        deploy_rate=0.05,
    ),
    AdNetwork(
        name="chartbeat",
        resources=(AdResource(
            "http://static.chartbeat.com/js/chartbeat.js", _T.SCRIPT),),
        blocking_filters=("||static.chartbeat.com/js/chartbeat.js$script",),
        deploy_rate=0.07,
        category_bias={"news": 1.6},
    ),
    AdNetwork(
        name="generic-banner",
        resources=(AdResource(
            "http://cdn.bannerfarm.net/{variant}/banner.gif", _T.IMAGE,
            repeat=3,
            variants=("ad-frame", "banner-zone", "ads-serve")),),
        blocking_filters=("/ad-frame/", "/banner-zone/",
                          "/ads-serve/$image"),
        deploy_rate=0.085,
        strata_scale=(0.9, 0.85, 0.8),
    ),
    AdNetwork(
        name="generic-publisher-adserv",
        # The ad server used by "generic" Acceptable Ads publishers: the
        # whitelist grants each participating publisher a *restricted*
        # exception for its own slot path (those filters live in the
        # whitelist history's publisher directory, not here).
        resources=(AdResource(
            "http://adserv.genericnet.com/slot/{host}/unit.js",
            _T.SCRIPT,
            element=("div", "class", "acceptable-unit")),),
        blocking_filters=("||adserv.genericnet.com^$third-party",),
        deploy_rate=0.0,
    ),
    AdNetwork(
        name="popunder",
        resources=(AdResource(
            "http://serve.popads.net/cas.js", _T.SCRIPT),),
        blocking_filters=("||popads.net^$third-party",),
        deploy_rate=0.03,
        strata_scale=(1.5, 2.0, 2.6),
    ),
)

_BY_NAME = {net.name: net for net in NETWORK_CATALOG}


def network(name: str) -> AdNetwork:
    """Look up a catalog network by name (KeyError on unknown)."""
    return _BY_NAME[name]


def whitelisted_networks() -> list[AdNetwork]:
    """Networks contributing unrestricted Acceptable Ads filters."""
    return [n for n in NETWORK_CATALOG if n.whitelist_filters]


def blocking_networks() -> list[AdNetwork]:
    """Networks EasyList blocks (whitelisted or not)."""
    return [n for n in NETWORK_CATALOG if n.blocking_filters]
