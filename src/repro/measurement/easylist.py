"""A synthetic EasyList — the blocking side of the default configuration.

EasyList contains tens of thousands of blocking filters covering the
common ad networks.  Our synthetic edition has three parts:

* the *real* blocking filters for every catalog ad network (these are
  the ones the survey actually exercises);
* element-hiding filters for the catalog's ad elements plus the classic
  generic selectors (``##.banner-ad``, ``###influads_block``);
* a large tail of filler filters for ad servers that never appear in
  the synthetic web — they make the list realistically large so the
  engine's keyword index earns its keep, and they exercise the
  "EasyList mostly doesn't match" behaviour of real pages.

Note what is deliberately absent: any filter matching ``gstatic.com``.
The paper points out that the whitelist's gstatic exception is
*needless* because EasyList never blocked those requests — reproducing
that requires the absence to be intentional here.
"""

from __future__ import annotations

from repro.filters import filterlist
from repro.filters.filterlist import FilterList
from repro.web.adnetworks import NETWORK_CATALOG

__all__ = ["build_easylist", "EASYLIST_FILLER_COUNT"]

EASYLIST_FILLER_COUNT = 2_000

_GENERIC_ELEMENT_FILTERS = (
    "##.banner-ad",
    "##.sponsored-links",
    "###ad-container",
    "###ad_top",
    "##.adsbox",
    "##.ad-banner",
    "##div[id^=\"div-gpt-ad\"]",
    "##.ad-slot",
)

_FILLER_WORDS = (
    "banner", "click", "pop", "track", "serve", "delivery", "impress",
    "traffic", "media", "cash", "profit", "revenue", "yield", "promo",
)


def build_easylist(name: str = "easylist") -> FilterList:
    """Construct the synthetic EasyList."""
    lines: list[str] = ["[Adblock Plus 2.0]", "! Title: EasyList"]

    lines.append("! -- catalog ad networks")
    seen: set[str] = set()
    for network in NETWORK_CATALOG:
        for flt in network.blocking_filters:
            if flt not in seen:
                seen.add(flt)
                lines.append(flt)

    lines.append("! -- generic element hiding")
    lines.extend(_GENERIC_ELEMENT_FILTERS)

    lines.append("! -- long tail")
    for i in range(EASYLIST_FILLER_COUNT):
        word = _FILLER_WORDS[i % len(_FILLER_WORDS)]
        style = i % 4
        if style == 0:
            lines.append(f"||{word}server{i}.com^$third-party")
        elif style == 1:
            lines.append(f"||ads.{word}net{i}.net^")
        elif style == 2:
            lines.append(f"/{word}-zone-{i}/$image")
        else:
            lines.append(f"||cdn{i}.{word}-delivery.com/js/$script")

    # Through the module, so a wrapper installed on
    # ``filterlist.parse_filter_list`` (a profiler span) sees this parse.
    return filterlist.parse_filter_list("\n".join(lines), name=name)
