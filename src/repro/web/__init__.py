"""Synthetic web substrate: URLs, HTTP, DOM, sites, browser, crawler.

This subpackage replaces the live Internet the paper crawled.  Sites are
generated deterministically from their domain names; ad stacks come from
the shared network catalog; the instrumented browser plays the role of
Selenium driving a patched Adblock Plus.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".adnetworks": (
        "AdNetwork", "AdResource", "NETWORK_CATALOG", "blocking_networks",
        "network", "whitelisted_networks",
    ),
    ".browser": ("InstrumentedBrowser", "PageVisit"),
    ".crawler": (
        "Crawler", "CrawlHealth", "CrawlOutcome", "CrawlRecord", "CrawlStatus",
        "CrawlTarget", "crawl_health",
    ),
    ".faults": (
        "Fault", "FaultInjector", "FaultKind", "FaultPlan", "FaultSpec",
    ),
    ".devtools": (
        "BlockableItem", "Disposition", "blockable_items",
        "render_blockable_items",
    ),
    ".dom": ("Document", "Element"),
    ".http": (
        "CURL_USER_AGENT", "DEFAULT_USER_AGENT", "ConnectTimeout", "CookieJar",
        "DnsFailure", "Headers", "HttpClient", "HttpError", "HttpRequest",
        "HttpResponse", "ReadTimeout", "ServerFault", "TooManyRedirects",
        "TransportError", "TruncatedBody",
    ),
    ".resilience": (
        "OutcomeStatus", "RetryPolicy", "SimulatedClock", "classify_error",
        "execute_with_policy",
    ),
    ".sites": (
        "BuiltPage", "PageRequest", "PINNED_PROFILES", "SiteProfile",
        "build_page", "pinned_profile", "profile_for_domain",
    ),
    ".url": (
        "URL", "URLError", "is_subdomain_of", "is_third_party", "parse_url",
        "public_suffix", "registered_domain",
    ),
})
