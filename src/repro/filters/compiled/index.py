"""The compiled, frozen form of :class:`~repro.filters.index.FilterIndex`.

``FilterIndex`` is the mutable build-time structure: it chooses keywords
as filters arrive and grows dict buckets.  Once an engine freezes
(:meth:`repro.filters.engine.AdblockEngine.freeze`), the index is
compiled into this read-only form, which fixes the PR-4 hot path's two
remaining costs:

* **per-probe tokenisation** — the legacy path ran a regex over every
  URL (memoised in an 8192-entry ``lru_cache`` that forked workers had
  to re-warm and that thrashes once the survey's working set exceeds
  it).  The compiled probe is a single pass over the URL bytes with
  C-level primitives: one 256-byte ``translate`` (lowercase + collapse
  separators), one ``split``, one ``set.intersection`` against the
  keyword set.  No cache, nothing to warm after ``fork``.
* **per-candidate generator machinery** — ``candidates()`` was a
  generator resuming once per yielded filter, which dominates when the
  fallback bucket is large (the synthetic EasyList routes ~25% of its
  filters there).  The compiled index returns *prebuilt tuples*:
  the zero-hit answer is one shared ``fallback`` tuple, a single-hit
  answer is the bucket's precomputed ``bucket + fallback`` tuple.

The candidate *sequence* is byte-identical to the legacy index's:
distinct URL tokens in first-occurrence order select buckets (bucket
contents in insertion order), then the fallback bucket, always, last —
the never-filter-out-a-match guarantee is untouched.  The
differential-fuzz suite (``tests/filters/test_compiled_fuzz.py``) holds
this equivalence against the legacy ``FilterIndex``, which stays as the
oracle.

Matching (:meth:`CompiledFilterIndex.match_all` / ``match_first``) does
not evaluate that whole sequence.  Compilation also splits the fallback
bucket by :class:`~repro.filters.options.ContentType` member: each
member's **typed fallback** holds only the fallback filters whose
effective mask includes it, in insertion order.  A request reads its
hit buckets whole and then its type's fallback, so a script request
never evaluates the hundreds of ``$image``-only fallback filters; the
candidates it does evaluate keep the sequence's order, and
``RequestFilter.matches`` still runs every check.  A content type that
is not a single member (a flag combination, only possible through the
Python API) reads the whole fallback.  The typed fallbacks are built
once, eagerly, and never change, so a compiled index stays safe to
share between threads.

Non-ASCII URLs take a conservative detour through the legacy string
tokeniser: ``str.lower()`` can fold non-ASCII code points *into* ASCII
(``'K'.lower() == 'k'``), so byte-level lowercasing of such URLs
could miss a bucket and break the completeness guarantee.

>>> from repro.filters.index import FilterIndex
>>> from repro.filters.parser import parse_filter
>>> legacy = FilterIndex([parse_filter("||adzerk.net^"),
...                       parse_filter("/banner[0-9]+/")])
>>> compiled = CompiledFilterIndex.compile(legacy)
>>> [f.text for f in compiled.candidates("http://adzerk.net/x")]
['||adzerk.net^', '/banner[0-9]+/']
>>> [f.text for f in compiled.candidates("http://example.com/page")]
['/banner[0-9]+/']
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

from repro.filters.index import FilterIndex, _url_tokens
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter
from repro.obs import OBS

__all__ = ["CompiledFilterIndex", "TOKEN_TABLE"]

#: The token alphabet: exactly the character class of the index's
#: ``_URL_KEYWORD_RE`` (``[a-z0-9%]``).
_TOKEN_BYTES = b"abcdefghijklmnopqrstuvwxyz0123456789%"


def _build_token_table() -> bytes:
    table = bytearray(b" " * 256)
    for byte in _TOKEN_BYTES:
        table[byte] = byte
    for byte in range(ord("A"), ord("Z") + 1):
        table[byte] = byte + 32          # lowercase, like str.lower()
    return bytes(table)


#: ``bytes.translate`` table: token bytes pass through (uppercase
#: lowercased), every other byte becomes a space.  After translation,
#: ``.split()`` yields exactly the URL's keyword-alphabet tokens.
TOKEN_TABLE = _build_token_table()


class _MultiCandidates:
    """A reusable, lazily chained multi-bucket candidate sequence.

    The fallback bucket routinely holds hundreds of filters, so
    materialising ``bucket + bucket + fallback`` into a list would copy
    hundreds of pointers per multi-hit probe.  This object keeps the
    (two or three) hit buckets plus the fallback as a tuple of tuples
    and iterates them back-to-back with C-level ``chain`` iteration —
    each ``__iter__`` call yields a fresh iterator, so callers may
    re-iterate it just like the prebuilt single-hit tuples.
    """

    __slots__ = ("_parts", "_length")

    def __init__(self, parts: tuple[tuple[RequestFilter, ...], ...]) -> None:
        self._parts = parts
        self._length = sum(map(len, parts))

    def __iter__(self) -> Iterator[RequestFilter]:
        return chain.from_iterable(self._parts)

    def __len__(self) -> int:
        return self._length


class CompiledFilterIndex:
    """Read-only keyword index: keyword set + prebuilt bucket tuples.

    Construction goes through :meth:`compile` (from a built
    ``FilterIndex``) or :meth:`from_parts` (the artifact-load path).
    The probe surface mirrors ``FilterIndex`` — ``candidates``,
    ``match_first``, ``match_all``, iteration, ``len`` — so engines and
    sessions use either interchangeably; ``candidates`` returns a
    reusable sequence rather than a one-shot generator.
    """

    __slots__ = ("name", "_keywords", "_buckets", "_fallback",
                 "_kwset", "_single", "_raw", "_bucket_of", "_count",
                 "_typed_fallback")

    def __init__(self, *, name: str,
                 keywords: tuple[str, ...],
                 buckets: tuple[tuple[RequestFilter, ...], ...],
                 fallback: tuple[RequestFilter, ...]) -> None:
        if len(keywords) != len(buckets):
            raise ValueError("one bucket per keyword required")
        self.name = name
        self._keywords = keywords
        self._buckets = buckets
        self._fallback = fallback
        encoded = [keyword.encode("ascii") for keyword in keywords]
        # A plain set (not frozenset): ``set.intersection`` then returns
        # a mutable set the multi-hit assembler can drain in place.
        self._kwset = set(encoded)
        # Single-hit probes (the overwhelmingly common non-empty case)
        # return one precomputed ``bucket + fallback`` tuple: memory is
        # O(buckets x fallback) pointers, traded for zero per-probe
        # concatenation.  ``_raw`` keeps the bare buckets for the rare
        # multi-hit assembly.
        self._single = {token: bucket + fallback
                        for token, bucket in zip(encoded, buckets)}
        self._raw = dict(zip(encoded, buckets))
        self._bucket_of = {id(flt): kid
                           for kid, bucket in enumerate(buckets)
                           for flt in bucket}
        self._bucket_of.update((id(flt), -1) for flt in fallback)
        self._count = sum(map(len, buckets)) + len(fallback)
        # Matching reads the fallback of the request's content type:
        # each ContentType member's value maps to the fallback filters
        # whose mask includes it, in insertion order.
        masks = [flt.options.effective_mask_int() for flt in fallback]
        self._typed_fallback = {
            member.value: tuple(flt for flt, mask in zip(fallback, masks)
                                if mask & member.value)
            for member in ContentType}

    # -- construction --------------------------------------------------

    @classmethod
    def compile(cls, index: FilterIndex,
                name: str = "index") -> "CompiledFilterIndex":
        """Compile a built ``FilterIndex`` (bucket order preserved)."""
        return cls(name=name,
                   keywords=tuple(index._by_keyword),
                   buckets=tuple(tuple(bucket)
                                 for bucket in index._by_keyword.values()),
                   fallback=tuple(index._fallback))

    @classmethod
    def from_parts(cls, *, name: str, keywords: Sequence[str],
                   buckets: Sequence[Sequence[RequestFilter]],
                   fallback: Sequence[RequestFilter]
                   ) -> "CompiledFilterIndex":
        """Assemble from deserialized parts (the artifact-load path)."""
        return cls(name=name, keywords=tuple(keywords),
                   buckets=tuple(tuple(b) for b in buckets),
                   fallback=tuple(fallback))

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RequestFilter]:
        for bucket in self._buckets:
            yield from bucket
        yield from self._fallback

    @property
    def keywords(self) -> tuple[str, ...]:
        return self._keywords

    @property
    def fallback(self) -> tuple[RequestFilter, ...]:
        return self._fallback

    def bucket_filters(self, keyword_id: int) -> tuple[RequestFilter, ...]:
        return self._buckets[keyword_id]

    def bucket_of(self, flt: RequestFilter) -> int:
        """Bucket id holding ``flt`` (``-1`` = fallback); serialization."""
        return self._bucket_of[id(flt)]

    def stats(self) -> dict[str, int]:
        """Size figures for ``/healthz`` and the compiled-index benchmark."""
        return {"filters": self._count,
                "keywords": len(self._keywords),
                "fallback": len(self._fallback)}

    # -- probing -------------------------------------------------------

    def candidates(self, url: str) -> Sequence[RequestFilter]:
        """Candidate filters for ``url``, as a reusable sequence.

        Same completeness guarantee and same ordering as
        :meth:`FilterIndex.candidates`; the zero- and single-hit cases
        return prebuilt tuples, so callers may iterate them repeatedly
        without re-probing.
        """
        if OBS.enabled:
            return self._instrumented_candidates(url)
        toks, hits = self._probe(url)
        if not hits:
            return self._fallback
        if len(hits) == 1:
            # ``hits`` is a fresh mutable set; pop() beats building an
            # iterator just to read the lone element.
            return self._single[hits.pop()]
        return self._multi_hit(toks, hits, self._fallback)

    def _probe(self, url: str) -> tuple[Sequence[bytes], set[bytes]]:
        """The URL's tokens, and the (fresh, mutable) set of its keywords."""
        if url.isascii():
            toks = url.encode("ascii").translate(TOKEN_TABLE).split()
        else:
            toks = [token.encode("ascii") for token in _url_tokens(url)]
        return toks, self._kwset.intersection(toks)

    def _multi_hit(self, toks: Sequence[bytes], pending: set[bytes],
                   fallback: tuple[RequestFilter, ...]
                   ) -> Sequence[RequestFilter]:
        """Hit buckets in first-occurrence order, then ``fallback``."""
        parts: list[tuple[RequestFilter, ...]] = []
        raw = self._raw
        for token in toks:
            if token in pending:
                pending.discard(token)
                parts.append(raw[token])
                if not pending:
                    break
        parts.append(fallback)
        return _MultiCandidates(tuple(parts))

    def _instrumented_candidates(self, url: str) -> Sequence[RequestFilter]:
        """:meth:`candidates` plus ``filters.index.*`` accounting."""
        order = self._recorded_probe(url)
        raw = self._raw
        if not order:
            return self._fallback
        if len(order) == 1:
            return self._single[order[0]]
        out: list[RequestFilter] = []
        for token in order:
            out.extend(raw[token])
        out.extend(self._fallback)
        return out

    def _recorded_probe(self, url: str) -> list[bytes]:
        """The hit tokens in first-occurrence order, probe counters recorded.

        Probes the *identical* bucket sequence as the fast path (same
        driver, same ordering) and counts it against the *unsplit*
        index, whatever fallback the caller then reads;
        ``bucket_misses`` counts distinct keyword-eligible tokens
        (length >= 3) absent from the index.
        """
        if url.isascii():
            raw_tokens = url.encode("ascii").translate(TOKEN_TABLE).split()
            distinct = [token for token in dict.fromkeys(raw_tokens)
                        if len(token) >= 3]
        else:
            distinct = [token.encode("ascii")
                        for token in _url_tokens(url)]
        kwset = self._kwset
        order = [token for token in distinct if token in kwset]
        reg = OBS.registry
        reg.counter("filters.index.probes").inc()
        reg.counter("filters.index.bucket_hits").inc(len(order))
        reg.counter("filters.index.bucket_misses").inc(
            len(distinct) - len(order))
        raw = self._raw
        yielded = sum(len(raw[token]) for token in order)
        reg.counter("filters.index.candidates_yielded").inc(
            yielded + len(self._fallback))
        if self._fallback:
            reg.counter("filters.index.fallback_scanned").inc(
                len(self._fallback))
        return order

    # -- matching ------------------------------------------------------

    def _typed_candidates(self, url: str,
                          content_type: ContentType
                          ) -> Sequence[RequestFilter]:
        """:meth:`candidates` with the fallback of ``content_type`` only.

        The hit buckets are read whole; the fallback keeps only the
        filters whose mask includes ``content_type`` (all of them when
        it is not a single member, e.g. a flag combination), order
        otherwise unchanged.
        """
        fallback = self._typed_fallback.get(content_type, self._fallback)
        if OBS.enabled:
            raw = self._raw
            found = _MultiCandidates(
                (*(raw[token] for token in self._recorded_probe(url)),
                 fallback))
            OBS.registry.counter("filters.index.candidates_evaluated").inc(
                len(found))
            return found
        toks, hits = self._probe(url)
        if not hits:
            return fallback
        return self._multi_hit(toks, hits, fallback)

    def match_first(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        sitekey: str | None = None,
    ) -> RequestFilter | None:
        """First matching filter, or ``None``."""
        for flt in self._typed_candidates(url, content_type):
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey):
                return flt
        return None

    def match_all(
        self,
        url: str,
        content_type: ContentType,
        page_host: str,
        request_host: str,
        *,
        sitekey: str | None = None,
    ) -> list[RequestFilter]:
        """Every matching filter (the survey records all activations)."""
        return [
            flt
            for flt in self._typed_candidates(url, content_type)
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledFilterIndex({self.name!r}, "
                f"filters={self._count}, "
                f"keywords={len(self._keywords)}, "
                f"fallback={len(self._fallback)})")
