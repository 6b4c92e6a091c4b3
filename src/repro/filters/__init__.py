"""Adblock Plus filter engine: parsing, matching, classification.

This subpackage is a from-scratch implementation of the filter language
and blocking semantics described in Section 2 and Appendix A of the
paper.  The most useful entry points:

>>> from repro.filters import (parse_filter, AdblockEngine, ContentType,
...                            parse_filter_list)
>>> flt = parse_filter("||adzerk.net^$third-party")
>>> flt.matches("http://static.adzerk.net/ads.html",
...             ContentType.SUBDOCUMENT, "reddit.com", "static.adzerk.net")
True
"""

from repro.filters.classify import (
    ScopeClass,
    ScopeReport,
    classify_filter,
    classify_whitelist,
    explicit_domains,
)
from repro.filters.engine import (
    Activation,
    AdblockEngine,
    DocumentPrivileges,
    EngineSnapshot,
    FrozenEngineError,
    RequestDecision,
    Verdict,
)
from repro.filters.compiled import (
    CompiledArtifact,
    CompiledArtifactError,
    CompiledFilterIndex,
    parse_artifact,
    serialize_artifact,
)
from repro.filters.filterlist import FilterList, parse_filter_list
from repro.filters.hygiene import HygieneReport, audit
from repro.filters.index import FilterIndex
from repro.filters.options import (
    ContentType,
    FilterOptions,
    OptionError,
    TriState,
    parse_options,
)
from repro.filters.parser import (
    Comment,
    ElementFilter,
    Filter,
    InvalidFilter,
    ParseError,
    RequestFilter,
    parse_filter,
)
from repro.filters.pattern import CompiledPattern, PatternError, compile_pattern
from repro.filters.selectors import SelectorError, SelectorList, parse_selector

__all__ = [
    "Activation",
    "AdblockEngine",
    "Comment",
    "CompiledArtifact",
    "CompiledArtifactError",
    "CompiledFilterIndex",
    "CompiledPattern",
    "ContentType",
    "DocumentPrivileges",
    "ElementFilter",
    "EngineSnapshot",
    "FrozenEngineError",
    "Filter",
    "FilterIndex",
    "FilterList",
    "FilterOptions",
    "HygieneReport",
    "InvalidFilter",
    "OptionError",
    "ParseError",
    "PatternError",
    "RequestDecision",
    "RequestFilter",
    "ScopeClass",
    "ScopeReport",
    "SelectorError",
    "SelectorList",
    "TriState",
    "Verdict",
    "audit",
    "classify_filter",
    "classify_whitelist",
    "compile_pattern",
    "explicit_domains",
    "parse_artifact",
    "parse_filter",
    "parse_filter_list",
    "parse_options",
    "parse_selector",
    "serialize_artifact",
]
