"""Filter options — the ``$option,option,...`` clause of Appendix A.

Options tune a request filter's scope: which content types it applies to
(``script``, ``image``, ...), whether it is limited to third-party
requests, which first-party domains it is restricted to (``domain=``),
which sitekeys activate it (``sitekey=``), and a handful of behavioural
flags (``match-case``, ``collapse``, ``donottrack``).

The paper's whitelist-scope analysis (Figure 4, Table 2) is driven almost
entirely by this module: a filter is *restricted* exactly when its
``domain=`` option names at least one non-negated domain (or, for element
filters, when domains are prepended), *sitekey* when it carries
``sitekey=``, and *unrestricted* otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.web.url import is_subdomain_of

__all__ = [
    "ContentType",
    "TriState",
    "FilterOptions",
    "OptionError",
    "parse_options",
    "DEPRECATED_OPTIONS",
]


class OptionError(ValueError):
    """Raised when an option clause cannot be parsed."""


class ContentType(enum.IntFlag):
    """Request content types, as a bitmask (mirrors ABP internals).

    ``DEFAULT_MASK`` covers the types a filter applies to when no type
    option is given; ``DOCUMENT`` and ``ELEMHIDE`` are *not* implied by
    default — they must be requested explicitly, exactly as in ABP.
    """

    SCRIPT = enum.auto()
    IMAGE = enum.auto()
    STYLESHEET = enum.auto()
    OBJECT = enum.auto()
    XMLHTTPREQUEST = enum.auto()
    OBJECT_SUBREQUEST = enum.auto()
    SUBDOCUMENT = enum.auto()
    OTHER = enum.auto()
    # Exception-only "privilege" types.
    DOCUMENT = enum.auto()
    ELEMHIDE = enum.auto()
    # Deprecated types kept for backwards compatibility (Appendix A.4).
    BACKGROUND = enum.auto()
    XBL = enum.auto()
    PING = enum.auto()
    DTD = enum.auto()

    @classmethod
    def default_mask(cls) -> "ContentType":
        """Types matched when the filter names no content-type option."""
        return (
            cls.SCRIPT | cls.IMAGE | cls.STYLESHEET | cls.OBJECT
            | cls.XMLHTTPREQUEST | cls.OBJECT_SUBREQUEST | cls.SUBDOCUMENT
            | cls.OTHER | cls.BACKGROUND | cls.XBL | cls.PING | cls.DTD
        )


#: option keyword -> content type
_TYPE_OPTIONS: dict[str, ContentType] = {
    "script": ContentType.SCRIPT,
    "image": ContentType.IMAGE,
    "stylesheet": ContentType.STYLESHEET,
    "object": ContentType.OBJECT,
    "xmlhttprequest": ContentType.XMLHTTPREQUEST,
    "object-subrequest": ContentType.OBJECT_SUBREQUEST,
    "subdocument": ContentType.SUBDOCUMENT,
    "other": ContentType.OTHER,
    "document": ContentType.DOCUMENT,
    "elemhide": ContentType.ELEMHIDE,
    "background": ContentType.BACKGROUND,
    "xbl": ContentType.XBL,
    "ping": ContentType.PING,
    "dtd": ContentType.DTD,
}

#: option keyword -> content-type bit as a plain int.  Parsing ORs ints
#: and boxes each distinct mask into a ``ContentType`` once (see
#: :func:`_content_type`): an ``IntFlag`` ``|`` runs the enum constructor,
#: ~40x the cost of an int ``|``.
_TYPE_BITS: dict[str, int] = {keyword: int(content_type)
                              for keyword, content_type
                              in _TYPE_OPTIONS.items()}

#: mask -> its ``ContentType``; a list holds only a few distinct masks.
_CONTENT_TYPES: dict[int, ContentType] = {}

DEPRECATED_OPTIONS = frozenset({"background", "xbl", "ping", "dtd"})


class TriState(enum.Enum):
    """Three-valued option state: unset, required true, required false."""

    UNSET = "unset"
    YES = "yes"
    NO = "no"


@dataclass(slots=True)
class FilterOptions:
    """Parsed option clause of a request filter.

    ``include_types`` / ``exclude_types`` hold the explicitly requested and
    explicitly negated content types; :meth:`effective_mask` combines them
    with the default mask the way ABP does.
    """

    include_types: ContentType = ContentType(0)
    exclude_types: ContentType = ContentType(0)
    third_party: TriState = TriState.UNSET
    domains_include: tuple[str, ...] = ()
    domains_exclude: tuple[str, ...] = ()
    sitekeys: tuple[str, ...] = ()
    match_case: bool = False
    collapse: TriState = TriState.UNSET
    donottrack: bool = False
    raw: str = ""
    deprecated_used: tuple[str, ...] = field(default_factory=tuple)
    _mask_cache: int = field(default=-1, repr=False, compare=False)

    def effective_mask(self) -> ContentType:
        """The content-type mask this filter actually applies to.

        Cached: the mask is consulted on every candidate-filter check,
        millions of times over a survey.
        """
        return ContentType(self.effective_mask_int())

    def effective_mask_int(self) -> int:
        """The mask as a plain int — the hot-path form (no enum boxing)."""
        if self._mask_cache >= 0:
            return self._mask_cache
        if self.include_types:
            mask = self.include_types
        elif self.exclude_types:
            mask = ContentType.default_mask() & ~self.exclude_types
        else:
            mask = ContentType.default_mask()
        self._mask_cache = int(mask)
        return self._mask_cache

    @property
    def is_domain_restricted(self) -> bool:
        """True when at least one non-negated ``domain=`` entry exists."""
        return bool(self.domains_include)

    @property
    def has_sitekey(self) -> bool:
        return bool(self.sitekeys)

    def applies_to_type(self, content_type: ContentType | int) -> bool:
        """Does this filter apply to a request of ``content_type``?"""
        return bool(self.effective_mask_int() & int(content_type))

    def applies_on_domain(self, page_host: str) -> bool:
        """Does the ``domain=`` restriction admit ``page_host``?

        ABP semantics: an excluded domain always wins over a broader
        included one; with only exclusions, everything else is admitted;
        with inclusions, the page host must fall under one of them.
        """
        host = page_host.lower()
        best_include = -1
        best_exclude = -1
        for domain in self.domains_include:
            if is_subdomain_of(host, domain):
                best_include = max(best_include, domain.count(".") + 1)
        for domain in self.domains_exclude:
            if is_subdomain_of(host, domain):
                best_exclude = max(best_exclude, domain.count(".") + 1)
        if best_exclude >= 0 and best_exclude >= best_include:
            return False
        if self.domains_include:
            return best_include >= 0
        return True


def parse_options(text: str) -> FilterOptions:
    """Parse the text after ``$`` into a :class:`FilterOptions`.

    Raises :class:`OptionError` on unknown option keywords, on negating a
    non-negatable option (``domain=``, ``sitekey=``, ``match-case``,
    ``donottrack``), and on empty entries.
    """
    options = FilterOptions(raw=text)
    include = 0
    exclude = 0
    deprecated: list[str] = []

    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise OptionError(f"empty option in {text!r}")
        negated = piece.startswith("~")
        if negated:
            piece = piece[1:]
        keyword, eq, value = piece.partition("=")
        keyword = keyword.strip().lower()

        if eq:
            if negated:
                raise OptionError(f"option {keyword!r} cannot be negated")
            if keyword == "domain":
                _parse_domain_list(value, options)
            elif keyword == "sitekey":
                keys = tuple(k.strip() for k in value.split("|") if k.strip())
                if not keys:
                    raise OptionError("sitekey= requires at least one key")
                options.sitekeys = options.sitekeys + keys
            else:
                raise OptionError(f"unknown option {keyword!r}")
            continue

        bit = _TYPE_BITS.get(keyword)
        if bit is not None:
            if keyword in DEPRECATED_OPTIONS:
                deprecated.append(keyword)
            if negated:
                exclude |= bit
            else:
                include |= bit
        elif keyword == "third-party":
            options.third_party = TriState.NO if negated else TriState.YES
        elif keyword == "collapse":
            options.collapse = TriState.NO if negated else TriState.YES
        elif keyword == "match-case":
            if negated:
                raise OptionError("match-case cannot be negated")
            options.match_case = True
        elif keyword == "donottrack":
            if negated:
                raise OptionError("donottrack cannot be negated")
            options.donottrack = True
        else:
            raise OptionError(f"unknown option {keyword!r}")

    options.include_types = _content_type(include)
    options.exclude_types = _content_type(exclude)
    options.deprecated_used = tuple(deprecated)
    return options


def _content_type(mask: int) -> ContentType:
    """``ContentType(mask)``, built once per distinct mask."""
    content_type = _CONTENT_TYPES.get(mask)
    if content_type is None:
        content_type = _CONTENT_TYPES[mask] = ContentType(mask)
    return content_type


def _parse_domain_list(value: str, options: FilterOptions) -> None:
    include: list[str] = list(options.domains_include)
    exclude: list[str] = list(options.domains_exclude)
    for entry in value.split("|"):
        entry = entry.strip().lower()
        if not entry:
            raise OptionError("empty domain entry in domain= option")
        if entry.startswith("~"):
            domain = entry[1:]
            if not domain:
                raise OptionError("bare ~ in domain= option")
            exclude.append(domain)
        else:
            include.append(entry)
    options.domains_include = tuple(include)
    options.domains_exclude = tuple(exclude)
