"""Filter-line parser implementing the Appendix-A BNF grammar.

One line of a filter list parses to exactly one of:

* :class:`Comment` — lines starting with ``!`` (including the ``!A<n>``
  group markers mined in Section 7, and the forum-link comments Eyeo
  attaches to vetted filters);
* :class:`RequestFilter` — blocking filters and ``@@`` exception filters
  over web-request URLs, with an optional ``$option`` clause.  Pure
  sitekey exceptions (``@@$sitekey=...,document``) are request filters
  with an empty pattern;
* :class:`ElementFilter` — ``##`` element-hiding filters and ``#@#``
  element exceptions, with optional prepended domain restrictions;
* :class:`InvalidFilter` — anything unparseable, kept (with its error)
  rather than dropped, because the paper's hygiene audit (Section 8)
  counts malformed filters in the live whitelist.

The module-level :func:`parse_filter` is the single entry point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.filters.options import (
    ContentType,
    FilterOptions,
    OptionError,
    TriState,
    parse_options,
)
from repro.filters.pattern import (
    CompiledPattern,
    PatternError,
    compile_pattern,
    extract_keyword,
    keyword_candidates,
)
from repro.filters.selectors import SelectorError, SelectorList, parse_selector
from repro.obs import OBS
from repro.web.url import is_subdomain_of, is_third_party

__all__ = [
    "Filter",
    "Comment",
    "RequestFilter",
    "ElementFilter",
    "InvalidFilter",
    "ParseError",
    "parse_filter",
    "FORUM_LINK_RE",
    "A_GROUP_RE",
]


class ParseError(ValueError):
    """Raised by strict parsing entry points on malformed filters."""


#: Eyeo's convention: vetted filters carry a comment linking the forum topic.
FORUM_LINK_RE = re.compile(
    r"adblockplus\.org/forum/viewtopic\.php\?[\w&=;%-]+", re.IGNORECASE)

#: Section 7's undocumented groups are introduced by nondescript ``!A<n>``.
A_GROUP_RE = re.compile(r"^!\s*A(\d+)\s*$")


@dataclass(frozen=True, slots=True)
class Filter:
    """Base class: any parsed line.  ``text`` is the raw source line."""

    text: str


@dataclass(frozen=True, slots=True)
class Comment(Filter):
    """A ``!`` comment line."""

    @property
    def body(self) -> str:
        return self.text[1:].strip()

    @property
    def forum_link(self) -> str | None:
        """The ABP forum URL named in the comment, if any."""
        match = FORUM_LINK_RE.search(self.text)
        return match.group(0) if match else None

    @property
    def a_group(self) -> int | None:
        """The A-group number for ``!A<n>`` markers, else ``None``."""
        match = A_GROUP_RE.match(self.text)
        return int(match.group(1)) if match else None


@dataclass(frozen=True, slots=True)
class RequestFilter(Filter):
    """A web-request filter (blocking, or exception when ``is_exception``)."""

    pattern_text: str
    pattern: CompiledPattern | None
    options: FilterOptions
    is_exception: bool

    @property
    def keyword_candidates(self) -> tuple[str, ...]:
        """Safe index keywords for this filter's pattern.

        Computed once per distinct pattern text and cached (see
        :func:`repro.filters.pattern.keyword_candidates`), so
        :meth:`~repro.filters.index.FilterIndex.add` can re-rank the
        candidates on every insertion without re-scanning the pattern.
        """
        if self.pattern is None:
            return ()
        return keyword_candidates(self.pattern_text)

    @property
    def keyword(self) -> str:
        """Index keyword used by the matching engine's fast path."""
        if self.pattern is None:
            return ""
        return extract_keyword(self.pattern_text)

    @property
    def is_sitekey(self) -> bool:
        """Pure sitekey filters carry a sitekey and (typically) no pattern."""
        return self.options.has_sitekey

    @property
    def is_domain_restricted(self) -> bool:
        """Restricted scope: explicit ``domain=``, or — for pure
        ``$document``/``$elemhide`` privileges — a ``||host`` anchored
        pattern, which pins the filter to that first-party host just as
        explicitly (the ``@@||ask.com^$elemhide`` shape)."""
        if self.options.is_domain_restricted:
            return True
        return self._pattern_restricted_host() is not None

    @property
    def restricted_domains(self) -> tuple[str, ...]:
        if self.options.domains_include:
            return self.options.domains_include
        host = self._pattern_restricted_host()
        return (host,) if host else ()

    def _pattern_restricted_host(self) -> str | None:
        """The anchored hostname, for privilege-only exception filters.

        A ``$document``/``$elemhide`` filter matches the *page's own*
        URL, so a ``||host`` anchor enumerates its first-party scope.
        """
        if not self.is_exception or self.pattern is None:
            return None
        privilege = ContentType.DOCUMENT | ContentType.ELEMHIDE
        include = self.options.include_types
        if not include or include & ~privilege:
            return None
        return self.pattern.anchored_hostname

    def matches(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        sitekey: str | None = None,
    ) -> bool:
        """Full ABP match: type mask, pattern, domain, party, sitekey.

        Checks are ordered cheapest-reject first: the integer mask test,
        then the C-level regex, before any Python-level domain or party
        logic runs.  A frozen engine's compiled index already drops the
        fallback filters whose mask excludes the request's content type
        before calling this (its typed fallbacks), which used to be most
        of what the mask test rejected, so the regex now rejects most
        candidates that reach here.  The mask test stays: keyword-bucket
        filters, the legacy index and flag-combination content types
        still arrive unfiltered.  Nor does the compiled index pass on a
        literal ``/.../`` filter whose body is absent from an ASCII URL
        (its substring test), so such a filter's regex is compiled and
        searched only for URLs it matches, or non-ASCII ones.
        """
        options = self.options
        if not options.effective_mask_int() & int(content_type):
            return False
        if self.pattern is not None and \
                self.pattern.regex.search(url) is None:
            return False
        if options.domains_include or options.domains_exclude:
            if not options.applies_on_domain(page_host):
                return False
        if options.third_party is not TriState.UNSET:
            third = is_third_party(request_host, page_host)
            if options.third_party is TriState.YES and not third:
                return False
            if options.third_party is TriState.NO and third:
                return False
        if options.sitekeys:
            if sitekey is None or sitekey not in options.sitekeys:
                return False
        return True


@dataclass(frozen=True, slots=True)
class ElementFilter(Filter):
    """An element-hiding filter (``##``) or element exception (``#@#``)."""

    selector: SelectorList
    is_exception: bool
    domains_include: tuple[str, ...] = ()
    domains_exclude: tuple[str, ...] = ()

    @property
    def selector_text(self) -> str:
        return self.selector.source

    @property
    def is_domain_restricted(self) -> bool:
        return bool(self.domains_include)

    @property
    def restricted_domains(self) -> tuple[str, ...]:
        return self.domains_include

    def applies_on_domain(self, page_host: str) -> bool:
        host = page_host.lower()
        if any(is_subdomain_of(host, d) for d in self.domains_exclude):
            return False
        if self.domains_include:
            return any(is_subdomain_of(host, d) for d in self.domains_include)
        return True


@dataclass(frozen=True, slots=True)
class InvalidFilter(Filter):
    """A line that failed to parse; ``error`` says why."""

    error: str = field(default="", compare=False)


_ELEMENT_SEPARATOR_RE = re.compile(r"(#@#|##)")

#: ABP's own option recogniser: a comma-separated list of (optionally
#: negated) option words, each optionally carrying an ``=value`` whose
#: value may contain anything but a comma (base64 sitekeys included).
_OPTIONS_RE = re.compile(r"~?[\w-]+(=[^,]*)?(,~?[\w-]+(=[^,]*)?)*")

#: ``$document`` / ``$elemhide``: the exception-only privilege types.
_PRIVILEGE_TYPES = int(ContentType.DOCUMENT | ContentType.ELEMHIDE)


#: Metric label for each parse outcome (``filters.parse.lines``).
_PARSE_KIND = {
    Comment: "comment",
    RequestFilter: "request",
    ElementFilter: "element",
    InvalidFilter: "invalid",
}


def parse_filter(line: str) -> Filter:
    """Parse one filter-list line into its :class:`Filter` subtype.

    Never raises: malformed lines come back as :class:`InvalidFilter`,
    because real lists contain malformed entries that downstream analyses
    must count rather than crash on.
    """
    result = _parse_line(line)
    if OBS.enabled:
        OBS.registry.counter("filters.parse.lines",
                             kind=_PARSE_KIND[type(result)]).inc()
    return result


def _parse_line(line: str) -> Filter:
    text = line.rstrip("\n")
    stripped = text.strip()
    if not stripped:
        return InvalidFilter(text, error="blank line")
    if stripped.startswith("!"):
        return Comment(stripped)
    if stripped.startswith("[") and stripped.endswith("]"):
        return Comment("! " + stripped)  # header line, treated as metadata

    element_match = _ELEMENT_SEPARATOR_RE.search(stripped)
    if element_match and not stripped.startswith(("@@", "/")):
        return _parse_element(stripped, element_match)
    return _parse_request(stripped)


def _parse_element(text: str, match: re.Match[str]) -> Filter:
    separator = match.group(1)
    domain_part = text[: match.start()]
    selector_part = text[match.end():]
    include: list[str] = []
    exclude: list[str] = []
    if domain_part:
        for entry in domain_part.split(","):
            entry = entry.strip().lower()
            if not entry:
                return InvalidFilter(text, error="empty domain before ##")
            if entry.startswith("~"):
                if len(entry) == 1:
                    return InvalidFilter(text, error="bare ~ domain")
                exclude.append(entry[1:])
            else:
                include.append(entry)
    try:
        selector = parse_selector(selector_part)
    except SelectorError as exc:
        return InvalidFilter(text, error=f"bad selector: {exc}")
    return ElementFilter(
        text,
        selector=selector,
        is_exception=(separator == "#@#"),
        domains_include=tuple(include),
        domains_exclude=tuple(exclude),
    )


def _parse_request(text: str) -> Filter:
    is_exception = text.startswith("@@")
    body = text[2:] if is_exception else text

    pattern_text, options_text = _split_options(body)
    try:
        options = parse_options(options_text) if options_text else FilterOptions()
    except OptionError as exc:
        return InvalidFilter(text, error=f"bad options: {exc}")

    if options.has_sitekey and not is_exception:
        return InvalidFilter(text, error="sitekey= only valid on exceptions")
    if options.include_types & _PRIVILEGE_TYPES and not is_exception:
        return InvalidFilter(
            text, error="document/elemhide only valid on exceptions")

    pattern: CompiledPattern | None
    if pattern_text in ("", "*"):
        if not options_text:
            return InvalidFilter(text, error="empty filter")
        pattern = None  # matches every URL; used by pure sitekey filters
    else:
        try:
            pattern = compile_pattern(pattern_text,
                                      match_case=options.match_case)
        except PatternError as exc:
            return InvalidFilter(text, error=str(exc))

    return RequestFilter(
        text,
        pattern_text=pattern_text,
        pattern=pattern,
        options=options,
        is_exception=is_exception,
    )


def _split_options(body: str) -> tuple[str, str]:
    """Split ``pattern$options`` at the last viable ``$``.

    A ``$`` inside a raw regex (``/.../``) or a ``$`` with no known
    option-ish text after it stays part of the pattern.
    """
    if body.startswith("/") and body.rstrip().endswith("/"):
        return body, ""
    index = body.rfind("$")
    if index <= 0:
        # ``$`` at position 0 means an empty pattern with options
        # (the pure-sitekey shape ``@@$sitekey=...,document``).
        if index == 0:
            return "", body[1:]
        return body, ""
    candidate = body[index + 1:]
    if _OPTIONS_RE.fullmatch(candidate):
        return body[:index], candidate
    return body, ""
