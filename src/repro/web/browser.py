"""The instrumented browser — our stand-in for Selenium + patched ABP.

The paper instruments Adblock Plus inside a real browser and drives it
with Selenium, recording every filter activation per visited landing
page.  :class:`InstrumentedBrowser` does the same against the synthetic
web: it loads a site's landing page, consults the engine for document
privileges, every subresource request, and element hiding, and returns a
:class:`PageVisit` carrying the full activation log.

Browser state matters (Section 5): cookies change what ask.com serves,
and some sites detect ad blocking.  The browser carries a cookie jar and
models both effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.filters.engine import (
    Activation,
    AdblockEngine,
    RequestDecision,
    Verdict,
)
from repro.web.dom import Element
from repro.web.sites import SiteProfile, build_page
from repro.web.url import parse_url

__all__ = ["PageVisit", "InstrumentedBrowser"]


@dataclass(slots=True)
class PageVisit:
    """Everything recorded while loading one landing page."""

    domain: str
    page_url: str
    decisions: list[RequestDecision] = field(default_factory=list)
    hidden: list[Element] = field(default_factory=list)
    activations: list[Activation] = field(default_factory=list)

    @property
    def blocked_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict is Verdict.BLOCK)

    @property
    def allowed_count(self) -> int:
        return sum(1 for d in self.decisions if d.verdict is Verdict.ALLOW)

    @property
    def whitelist_activations(self) -> list[Activation]:
        return [a for a in self.activations if a.is_exception]

    @property
    def distinct_filters(self) -> set[str]:
        return {a.filter_text for a in self.activations}

    @property
    def distinct_whitelist_filters(self) -> set[str]:
        return {a.filter_text for a in self.whitelist_activations}


class InstrumentedBrowser:
    """A browser bound to an :class:`AdblockEngine`.

    Every page it loads comes from :func:`repro.web.sites.build_page`,
    so every request arrives with its host: the browser parses only the
    page URL, once per visit.  ``sitekey_provider`` optionally supplies
    the *verified* sitekey a page's server presented (the verification
    itself lives in :mod:`repro.sitekey.protocol`; by the time the
    engine sees a key the signature has been checked).
    """

    def __init__(
        self,
        engine: AdblockEngine,
        *,
        sitekey_provider: Callable[[str], str | None] | None = None,
    ) -> None:
        self.engine = engine
        self._sitekey_provider = sitekey_provider
        self._visited_domains: set[str] = set()
        self.engine.recording = True

    def visit(self, profile: SiteProfile) -> PageVisit:
        """Load ``profile``'s landing page and record all activations.

        A page URL that does not parse (a malformed domain) raises
        :class:`~repro.web.url.URLError` before any request is checked.
        """
        has_cookies = profile.domain in self._visited_domains
        self._visited_domains.add(profile.domain)

        page = build_page(
            profile,
            has_cookies=has_cookies,
            adblock_visible=profile.adblock_detecting,
        )
        page_url = page.document.url
        page_host = parse_url(page_url).host

        self.engine.clear_activations()
        sitekey = None
        if self._sitekey_provider is not None:
            sitekey = self._sitekey_provider(profile.domain)

        privileges = self.engine.document_privileges(
            page_url, page_host, sitekey=sitekey)

        visit = PageVisit(domain=profile.domain, page_url=page_url)
        for request in page.requests:
            # The page's own requests (no network) take the parsed,
            # normalised page host; catalog requests carry theirs.
            decision = self.engine.check_request(
                request.url,
                request.content_type,
                page_host,
                request.host if request.network else page_host,
                privileges=privileges,
                sitekey=sitekey,
            )
            visit.decisions.append(decision)

        visit.hidden = self.engine.hidden_elements(
            page.document.all_elements(), page_host, privileges=privileges)
        visit.activations = list(self.engine.activations)
        self.engine.clear_activations()
        return visit

    def reset_state(self) -> None:
        """Forget cookies/visit history (a fresh browser profile)."""
        self._visited_domains.clear()
