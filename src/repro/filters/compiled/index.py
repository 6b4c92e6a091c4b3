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
  filters there).  The compiled index returns tuples: the zero-hit
  answer is one shared ``fallback`` tuple, a single-hit answer the
  bucket's ``bucket + fallback`` tuple, built on the first probe that
  needs it and kept (``_single``; matching never reads it).

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
Python API) reads the whole fallback.

Nor does matching evaluate every filter of those buckets.  Each filter's
**required tokens** (:func:`~repro.filters.pattern.required_tokens`:
every keyword candidate of an ordinary pattern, the inner tokens of a
literal ``/.../`` body) must all be tokens of any URL it matches, so a
candidate whose set is not a subset of the URL's token set is skipped
before ``RequestFilter.matches``.  Sets are interned, and a bucket is
stored as *runs* of consecutive filters sharing one set, so the 500
``/banner-zone-N/$image`` fallback filters cost one subset test.  What
is skipped cannot match, so the matches and their order are unchanged.

Tokens cannot tell those 500 filters apart (``zone`` is their only
inner token), but their bodies can.  A **literal** ``/.../`` body
(:func:`~repro.filters.pattern.literal_body`: only
``[A-Za-z0-9%_,;=&-]``) without ``$match-case`` matches an ASCII URL
exactly when its lowercase form is a substring of the lowercased URL:
``re.IGNORECASE`` equates only the four code points of
:data:`~repro.filters.pattern.ASCII_FOLD` with ASCII letters, and an
ASCII URL holds none of them.  Runs are also split where literal
filters start or stop, and a run of literal filters carries their
lowercase bodies (*needles*); for an ASCII URL it keeps only the
filters whose needle occurs in the URL, in run order.  A non-ASCII URL
evaluates the run whole.  A matching candidate still runs every check
of ``RequestFilter.matches``.  The typed fallbacks and their runs are
built at compile time; a keyword bucket's runs on the first probe that
hits it (most never are).

A compiled index is safe to share between threads: after compilation
the only writes are those two fills (``_runs``, ``_single``), each one
dict store of a value computed from immutable data, so two threads
racing on one key at worst build equal values twice.

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

from itertools import chain, compress
from typing import Iterator, Sequence

from repro.filters.index import FilterIndex, _url_tokens
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter
from repro.filters.pattern import literal_body, required_tokens
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


#: A run: consecutive filters of one bucket that share a required-token
#: set (``None``: no tokens required), and, when every one of them is a
#: literal ``/.../`` body, their lowercase bodies (else ``None``).
_Run = tuple[frozenset[bytes] | None, tuple[RequestFilter, ...],
             tuple[str, ...] | None]


def _needle(flt: RequestFilter) -> str | None:
    """The lowercase literal body ``flt`` matches by, or ``None``.

    Without ``$match-case``, ``re.search(body, url, re.IGNORECASE)`` for
    such a body finds a match in an ASCII URL exactly when
    ``body.lower() in url.lower()``: only the four code points of
    :data:`~repro.filters.pattern.ASCII_FOLD` also equal an ASCII letter.
    """
    pattern = flt.pattern
    if pattern is None or pattern.match_case:
        return None
    body = literal_body(flt.pattern_text)
    return body.lower() if body is not None else None


def _runs(filters: tuple[RequestFilter, ...],
          needs: Sequence[frozenset[bytes] | None],
          needles: Sequence[str | None]) -> tuple[_Run, ...]:
    """Split ``filters`` into runs of equal (interned) ``needs`` and of
    literal bodies only or none."""
    runs = []
    start = 0

    def close(end: int | None) -> None:
        # A bucket that is one run keeps its own tuple: t[0:] is t.
        run = filters[start:end]
        literal = needles[start] is not None
        runs.append((needs[start], run,
                     tuple(needles[start:end]) if literal else None))

    for end in range(1, len(filters)):
        if (needs[end] is not needs[start]
                or (needles[end] is None) != (needles[start] is None)):
            close(end)
            start = end
    if filters:
        close(None)
    return tuple(runs)


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
                 "_interned", "_runs", "_typed_fallback",
                 "_whole_fallback")

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
        # ``_raw`` keeps the bare buckets; ``_single`` caches a
        # single-hit ``candidates()`` answer per token on first use.
        self._raw = dict(zip(encoded, buckets))
        self._single: dict[bytes, tuple[RequestFilter, ...]] = {}
        self._bucket_of = {id(flt): kid
                           for kid, bucket in enumerate(buckets)
                           for flt in bucket}
        self._bucket_of.update((id(flt), -1) for flt in fallback)
        self._count = sum(map(len, buckets)) + len(fallback)
        # Runs of filters sharing one required-token set: a keyword
        # bucket's on the first probe that hits it, the fallback's now.
        self._interned: dict[frozenset[bytes], frozenset[bytes]] = {}
        self._runs: dict[bytes, tuple[_Run, ...]] = {}
        fallback_needs = self._needs(fallback)
        fallback_needles = [_needle(flt) for flt in fallback]
        self._whole_fallback = _runs(fallback, fallback_needs,
                                     fallback_needles)
        # Matching reads the fallback of the request's content type:
        # each ContentType member's value maps to the fallback filters
        # whose mask includes it, in insertion order.
        masks = [flt.options.effective_mask_int() for flt in fallback]
        self._typed_fallback = {}
        for member in ContentType:
            value = member.value
            kept = [at for at, mask in enumerate(masks) if mask & value]
            self._typed_fallback[value] = _runs(
                tuple(fallback[at] for at in kept),
                [fallback_needs[at] for at in kept],
                [fallback_needles[at] for at in kept])

    def _needs(self, filters: tuple[RequestFilter, ...]
               ) -> list[frozenset[bytes] | None]:
        """Each filter's required URL tokens, interned, or ``None``."""
        interned = self._interned
        needs = []
        for flt in filters:
            # Tokens hold no space: one join, encode and C-level split.
            words = (frozenset(" ".join(required_tokens(flt.pattern_text))
                               .encode().split())
                     if flt.pattern is not None else None)
            needs.append(interned.setdefault(words, words)
                         if words else None)
        return needs

    def _split(self, token: bytes) -> tuple[_Run, ...]:
        """The runs of ``token``'s bucket, built and kept on first use."""
        bucket = self._raw[token]
        runs = self._runs[token] = _runs(bucket, self._needs(bucket),
                                         [_needle(flt) for flt in bucket])
        return runs

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
        return tuples, so callers may iterate them repeatedly without
        re-probing.
        """
        if OBS.enabled:
            order, _ = self._recorded_probe(url)
        else:
            toks, hits = self._probe(url)
            if len(hits) == 1:
                # ``hits`` is a fresh mutable set; pop() beats building
                # an iterator just to read the lone element.
                return self._single_hit(hits.pop())
            order = self._hit_order(toks, hits) if hits else []
        if not order:
            return self._fallback
        if len(order) == 1:
            return self._single_hit(order[0])
        raw = self._raw
        return _MultiCandidates(
            (*(raw[token] for token in order), self._fallback))

    def _single_hit(self, token: bytes) -> tuple[RequestFilter, ...]:
        single = self._single.get(token)
        if single is None:
            single = self._single[token] = self._raw[token] + self._fallback
        return single

    def _probe(self, url: str) -> tuple[Sequence[bytes], set[bytes]]:
        """The URL's tokens, and the (fresh, mutable) set of its keywords."""
        if url.isascii():
            toks = url.encode("ascii").translate(TOKEN_TABLE).split()
        else:
            toks = [token.encode("ascii") for token in _url_tokens(url)]
        return toks, self._kwset.intersection(toks)

    @staticmethod
    def _hit_order(toks: Sequence[bytes], pending: set[bytes]
                   ) -> list[bytes]:
        """The hit tokens in first-occurrence order (drains ``pending``)."""
        order = []
        for token in toks:
            if token in pending:
                pending.discard(token)
                order.append(token)
                if not pending:
                    break
        return order

    def _recorded_probe(self, url: str) -> tuple[list[bytes], set[bytes]]:
        """The hit tokens in first-occurrence order, and the URL's token
        set, probe counters recorded.

        Probes the *identical* bucket sequence as the fast path (same
        driver, same ordering) and counts it against the *unsplit*
        index, whatever the caller then evaluates;
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
        return order, set(distinct)

    # -- matching ------------------------------------------------------

    def _evaluated(self, url: str, content_type: ContentType
                   ) -> list[RequestFilter]:
        """The candidates that can match ``url``, in candidate order.

        The hit buckets, then the fallback of ``content_type`` only (the
        whole fallback when it is not a single member, e.g. a flag
        combination), minus every filter whose required tokens are not
        all tokens of ``url``: those cannot match, so the result is
        what :meth:`candidates` would have matched, in the same order.
        """
        fallback = self._typed_fallback.get(content_type,
                                            self._whole_fallback)
        runs = self._runs
        observed = OBS.enabled
        if observed:
            order, tokset = self._recorded_probe(url)
        else:
            toks, hits = self._probe(url)
            tokset = set(toks)
            order = self._hit_order(toks, hits) if hits else ()
        parts = [runs.get(token) or self._split(token) for token in order]
        parts.append(fallback)
        # Literal runs keep only the filters whose body occurs in the
        # lowercased URL; a non-ASCII URL evaluates them whole.
        lowered = url.lower() if url.isascii() else None
        evaluated: list[RequestFilter] = []
        for part in parts:
            for need, run, needles in part:
                if need is None or need <= tokset:
                    if needles is None or lowered is None:
                        evaluated.extend(run)
                    else:
                        evaluated.extend(compress(
                            run, map(lowered.__contains__, needles)))
        if observed:
            OBS.registry.counter("filters.index.candidates_evaluated").inc(
                len(evaluated))
        return evaluated

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
        for flt in self._evaluated(url, content_type):
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
            for flt in self._evaluated(url, content_type)
            if flt.matches(url, content_type, page_host, request_host,
                           sitekey=sitekey)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledFilterIndex({self.name!r}, "
                f"filters={self._count}, "
                f"keywords={len(self._keywords)}, "
                f"fallback={len(self._fallback)})")
