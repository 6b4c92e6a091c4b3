"""Keyword-indexed request-filter store — the index's build structure.

Real Adblock Plus does not test every filter against every request; it
buckets filters by a *keyword* (a literal substring every matching URL
must contain) and, per request, only evaluates the buckets whose keyword
occurs in the URL.  We reproduce that design: it keeps the Section 5
survey tractable at any scale (tens of thousands of filters x dozens of
requests per page) and it is itself benchmarked against the naive
linear scan (``benchmarks/bench_ablation_engine.py``).

``FilterIndex`` chooses keywords as filters arrive.  No engine matches
through it: an engine compiles it into the read-only
:class:`~repro.filters.compiled.index.CompiledFilterIndex` when it
freezes, on its first consultation at the latest, and every match runs
there.  What stays here is the build structure (:meth:`FilterIndex.add`,
iteration, ``len``) and :meth:`FilterIndex.candidates`, the plain
reference probe the differential fuzz and the compiled-index benchmark
hold the compiled index equal to.

Two semantics downstream code relies on, documented precisely because
the engine's correctness depends on them:

**Fallback-bucket probing.**  Not every filter can be keyword-bucketed:
raw ``/regex/`` patterns, patterns whose only literals are shorter than
three characters or wildcard-adjacent, and pattern-less pure-sitekey
exceptions offer no token guaranteed to appear in every matching URL.
Those filters land in a *fallback* bucket that :meth:`FilterIndex.candidates`
yields on **every** probe, after all keyword buckets.  The guarantee the
engine's verdicts rest on: every filter that matches a URL is yielded
for that URL — keyword-bucketed ones because their keyword must occur
as a token of the URL, fallback ones unconditionally.  The index never
filters *out* a match; it only skips buckets that provably cannot match.

>>> from repro.filters.parser import parse_filter
>>> index = FilterIndex([parse_filter("||adzerk.net^"),
...                      parse_filter("/banner[0-9]+/")])
>>> [f.text for f in index.candidates("http://example.com/page")]
['/banner[0-9]+/']
>>> [f.text for f in index.candidates("http://adzerk.net/x")]
['||adzerk.net^', '/banner[0-9]+/']

**Keyword choice.**  :meth:`FilterIndex._choose_keyword` picks, among a
pattern's candidate keywords, the one whose bucket is currently
smallest, breaking ties toward the *longest* keyword (rarer in URLs, so
probed less often).  Insertion order therefore shapes the buckets —
see the method docstring for the exact tie-breaking doctest.

The compiled index preserves both semantics byte-for-byte.  Adding a
filter counts it under ``filters.index.filters`` when observability is
enabled (:mod:`repro.obs`); the probe counters are the compiled
index's.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator

from repro.filters.parser import RequestFilter
from repro.filters.pattern import ASCII_FOLD
from repro.obs import OBS

__all__ = ["FilterIndex"]

_URL_KEYWORD_RE = re.compile(r"[a-z0-9%]{3,}")


def _url_tokens(url: str) -> tuple[str, ...]:
    """The URL's distinct keyword tokens, first-occurrence order.

    One probe tokenises the URL exactly once; the dedup is folded into
    the token tuple itself.  It serves the reference probe
    (:meth:`FilterIndex.candidates`) and the compiled index's non-ASCII
    detour; the compiled index tokenises ASCII URLs with C-level byte
    primitives.

    The URL is folded with :data:`~repro.filters.pattern.ASCII_FOLD`
    before lowercasing, as keywords are: a URL the pattern's
    case-insensitive regex matches must carry the keyword's token.
    """
    return tuple(dict.fromkeys(
        _URL_KEYWORD_RE.findall(url.translate(ASCII_FOLD).lower())))


class FilterIndex:
    """A keyword-bucketed collection of :class:`RequestFilter`.

    Filters whose pattern yields no usable keyword (raw regexes, very
    short patterns, pattern-less sitekey filters) live in an always-probed
    fallback bucket.
    """

    def __init__(self, filters: Iterable[RequestFilter] = ()) -> None:
        self._by_keyword: dict[str, list[RequestFilter]] = defaultdict(list)
        self._fallback: list[RequestFilter] = []
        self._count = 0
        for flt in filters:
            self.add(flt)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RequestFilter]:
        for bucket in self._by_keyword.values():
            yield from bucket
        yield from self._fallback

    def add(self, flt: RequestFilter) -> None:
        keyword = self._choose_keyword(flt)
        if keyword:
            self._by_keyword[keyword].append(flt)
        else:
            self._fallback.append(flt)
        self._count += 1
        if OBS.enabled:
            OBS.registry.counter(
                "filters.index.filters",
                bucket="keyword" if keyword else "fallback").inc()

    def _choose_keyword(self, flt: RequestFilter) -> str:
        """Pick the least-crowded candidate keyword (real-ABP heuristic).

        Thousands of filters can share a common token (an ad server's
        hostname); bucketing by the rarest token each pattern offers
        keeps every bucket small, which is the whole point of the index.

        The exact rule: among the pattern's candidate keywords (see
        :func:`repro.filters.pattern.keyword_candidates`), minimise
        ``(current bucket size, -len(keyword))`` — i.e. prefer the
        emptiest bucket *at insertion time*, and between equally empty
        buckets prefer the longest keyword, which occurs in fewer URLs
        and is therefore probed less often.  Filters with no candidates
        (raw regexes, pattern-less sitekey exceptions) get ``""``,
        routing them to the fallback bucket.

        >>> from repro.filters.parser import parse_filter
        >>> index = FilterIndex()
        >>> flt = parse_filter("||ads.examplecdn.org/banner")
        >>> index._choose_keyword(flt)   # all buckets empty: longest wins
        'examplecdn'
        >>> index.add(parse_filter("||static.examplecdn.org/px"))
        >>> index._choose_keyword(flt)   # that bucket is now crowded
        'ads'
        >>> index._choose_keyword(parse_filter("/^ad[0-9]/"))
        ''
        """
        candidates = flt.keyword_candidates
        if not candidates:
            return ""
        return min(candidates,
                   key=lambda w: (len(self._by_keyword.get(w, ())), -len(w)))

    def candidates(self, url: str) -> Iterator[RequestFilter]:
        """Filters whose keyword occurs in ``url`` plus the fallback set.

        Every filter that *matches* the URL is guaranteed to be yielded
        (keyword extraction only picks substrings required by the
        pattern); non-matching filters may be yielded too — callers must
        still run the full match.  Keyword extraction only emits
        separator-delimited tokens, so every matching filter's keyword
        appears as a full token of the URL; probing each distinct token
        covers all candidate buckets.  The fallback bucket is yielded
        last, unconditionally (see the module docstring).

        This is the reference probe the compiled index is held equal to;
        engines never match through it.
        """
        by_keyword = self._by_keyword
        for word in _url_tokens(url):
            bucket = by_keyword.get(word)
            if bucket is not None:
                yield from bucket
        yield from self._fallback
