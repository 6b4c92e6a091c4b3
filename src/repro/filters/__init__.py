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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".classify": (
        "ScopeClass", "ScopeReport", "classify_filter", "classify_whitelist",
        "explicit_domains",
    ),
    ".engine": (
        "Activation", "AdblockEngine", "DocumentPrivileges", "EngineSnapshot",
        "FrozenEngineError", "RequestDecision", "Verdict",
    ),
    ".compiled.artifact": (
        "CompiledArtifact", "CompiledArtifactError", "parse_artifact",
        "serialize_artifact",
    ),
    ".compiled.index": ("CompiledFilterIndex",),
    ".filterlist": ("FilterList", "parse_filter_list"),
    ".hygiene": ("HygieneReport", "audit"),
    ".index": ("FilterIndex",),
    ".options": (
        "ContentType", "FilterOptions", "OptionError", "TriState",
        "parse_options",
    ),
    ".parser": (
        "Comment", "ElementFilter", "Filter", "InvalidFilter", "ParseError",
        "RequestFilter", "parse_filter",
    ),
    ".pattern": ("CompiledPattern", "PatternError", "compile_pattern"),
    ".selectors": ("SelectorError", "SelectorList", "parse_selector"),
})
