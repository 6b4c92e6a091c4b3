"""Request-pattern compilation: the ``<request-match>`` production.

A request pattern is a simplified regular expression over URLs with four
special constructs (Appendix A.1):

* ``*``    — wildcard, matches any run of characters (implicit at both
  ends of every pattern unless anchored);
* ``|``    — anchor; at the start it pins the match to the beginning of
  the URL, at the end to the end of the URL;
* ``||``   — extended anchor; matches the start of the hostname at a
  domain-label boundary, admitting any scheme and any subdomain
  (``||example.com/ad`` matches ``https://sub.example.com/ad``);
* ``^``    — separator placeholder; matches any single character that is
  not a letter, digit, or one of ``_ - . %``, and *also* matches the end
  of the URL (so ``||adzerk.net^`` matches a bare ``http://adzerk.net``).

Patterns wrapped in ``/.../`` are raw regular expressions.  Matching is
a single ``re.search``.  ``match-case`` switches the compilation to
case-sensitive (URLs are matched case-insensitively by default, as in
ABP).

Compilation is a hot path twice over: the survey parses EasyList once
per engine configuration (thousands of lines each time), and the
keyword index consults :func:`keyword_candidates` per filter.  Three
caches keep it cheap:

* :func:`compile_pattern` is memoised per ``(source, match_case)``, so
  re-parsing the same list reuses the compiled objects outright;
* the Python regex inside a :class:`CompiledPattern` is built
  *lazily*, on first match — a filter that never reaches the matcher
  (most of EasyList, for any one page) never pays the ABP → regex
  translation nor ``re.compile``.  That holds for translated patterns
  (only their ``anchored_hostname`` is computed up front) and for
  *literal* ``/.../`` bodies
  (:func:`literal_body`: only ``[A-Za-z0-9%_,;=&-]``), which cannot
  fail to compile; the compiled index tests most of those with a
  substring check and never compiles them at all.  Any other raw
  ``/.../`` pattern compiles eagerly, because :class:`PatternError` for
  a malformed regex must surface at parse time (the hygiene audit
  counts those);
* :func:`keyword_candidates` is memoised per pattern text.

All three are registered process caches
(:mod:`repro.parallel.caches`): forked survey workers start them
empty.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.parallel.caches import register_process_cache

__all__ = ["CompiledPattern", "compile_pattern", "PatternError",
           "extract_keyword", "keyword_candidates", "literal_body",
           "required_tokens", "ASCII_FOLD", "SEPARATOR_REGEX"]


class PatternError(ValueError):
    """Raised when a pattern cannot be compiled."""


#: ``str.translate`` table mapping each non-ASCII code point that
#: ``re.IGNORECASE`` treats as equal to an ASCII letter onto that letter.
#: ``str.lower()`` folds only U+212A there (U+0130 lowers to ``i`` plus a
#: combining dot).  Applied before lowercasing wherever patterns or URLs
#: are split into keyword tokens, so a URL a pattern's regex matches
#: (``ſtats.com`` for ``||stats.com^``) carries the pattern's tokens.
ASCII_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i",
                            "\u017f": "s", "\u212a": "k"})

#: What ``^`` expands to: any separator character, or the end of the URL.
SEPARATOR_REGEX = r"(?:[^\w\-.%]|$)"


class CompiledPattern:
    """A request pattern compiled (lazily) to a regex.

    ``source`` is the original pattern text; ``is_regex`` records whether
    it was a raw ``/.../`` pattern; ``anchored_hostname`` is set for the
    common ``||host`` shape, letting the keyword index fast-path it.

    The Python regex behind :attr:`regex` is built on first access and
    cached on the instance — raw regex patterns arrive pre-compiled
    (their syntax errors must surface at parse time), while translated
    patterns defer both the ABP → regex translation and ``re.compile``,
    and literal ``/.../`` bodies defer ``re.compile``, until the filter
    is first matched.  That fill is idempotent and stored with one
    attribute assignment, so threads sharing an instance may race on it
    harmlessly.
    Instances are value-equal on ``(source, match_case)`` and treated as
    immutable; :func:`compile_pattern` shares them freely.
    """

    __slots__ = ("source", "is_regex", "match_case", "anchored_hostname",
                 "_regex")

    def __init__(self, *, source: str, is_regex: bool, match_case: bool,
                 anchored_hostname: str | None = None,
                 regex: re.Pattern[str] | None = None) -> None:
        self.source = source
        self.is_regex = is_regex
        self.match_case = match_case
        self.anchored_hostname = anchored_hostname
        self._regex = regex

    @property
    def regex(self) -> re.Pattern[str]:
        """The compiled regex, built on first use."""
        regex = self._regex
        if regex is None:
            source = (self.source[1:-1] if self.is_regex
                      else _translate(self.source))
            try:
                regex = re.compile(
                    source, 0 if self.match_case else re.IGNORECASE)
            except re.error as exc:  # pragma: no cover - both are safe
                raise PatternError(
                    f"failed to compile {self.source!r}: {exc}") from exc
            self._regex = regex
        return regex

    def matches(self, url: str) -> bool:
        """True when the pattern matches anywhere in ``url``."""
        return self.regex.search(url) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledPattern):
            return NotImplemented
        return (self.source, self.match_case) == (other.source,
                                                  other.match_case)

    def __hash__(self) -> int:
        return hash((self.source, self.match_case))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledPattern({self.source!r}, "
                f"match_case={self.match_case})")


@register_process_cache
@lru_cache(maxsize=16384)
def compile_pattern(source: str, match_case: bool = False) -> CompiledPattern:
    """Compile a filter pattern into a :class:`CompiledPattern`.

    Raises :class:`PatternError` for raw regex patterns that fail to
    compile.  Memoised per ``(source, match_case)``: the survey builds
    EasyList once per engine configuration, and every duplicate pattern
    across builds shares one compiled object.
    """
    if len(source) >= 2 and source.startswith("/") and source.endswith("/"):
        regex = None
        # A literal body cannot fail to compile, so it compiles lazily.
        if literal_body(source) is None:
            try:
                regex = re.compile(source[1:-1],
                                   0 if match_case else re.IGNORECASE)
            except re.error as exc:
                raise PatternError(
                    f"bad regex pattern {source!r}: {exc}") from exc
        return CompiledPattern(source=source, regex=regex, is_regex=True,
                               match_case=match_case)

    anchored_hostname: str | None = None
    if source.startswith("||"):
        host_match = _HOST_RE.match(source, 2)
        if host_match:
            anchored_hostname = host_match.group().lower()
    return CompiledPattern(source=source, is_regex=False,
                           match_case=match_case,
                           anchored_hostname=anchored_hostname)


#: The ``host`` of a ``||host`` pattern.
_HOST_RE = re.compile(r"[a-z0-9\-]+(?:\.[a-z0-9\-]+)*", re.IGNORECASE)


def _translate(source: str) -> str:
    """The regex for a non-``/.../`` pattern: anchors, then the body."""
    text = source
    parts: list[str] = []
    if text.startswith("||"):
        text = text[2:]
        # Scheme, then any chain of subdomain labels, then the pattern.
        parts.append(r"^[a-z][a-z0-9+.\-]*://(?:[^/?#]*\.)?")
    elif text.startswith("|"):
        text = text[1:]
        parts.append("^")

    end_anchor = False
    if text.endswith("|") and not text.endswith("\\|"):
        end_anchor = True
        text = text[:-1]

    parts.append(_translate_body(text))
    if end_anchor:
        parts.append("$")
    return "".join(parts)


def _translate_body(text: str) -> str:
    """Translate the pattern body: ``*`` -> ``.*``, ``^`` -> separator."""
    out: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if run:
            out.append(re.escape("".join(run)))
            run.clear()

    for ch in text:
        if ch == "*":
            flush()
            # Collapse adjacent wildcards; ``.*.*`` is valid but slow.
            if not out or out[-1] != ".*":
                out.append(".*")
        elif ch == "^":
            flush()
            out.append(SEPARATOR_REGEX)
        else:
            run.append(ch)
    flush()
    return "".join(out)


# A keyword must be a full token of every matching URL, so the run has to
# be delimited in the pattern by non-token characters (and not touch a
# wildcard, whose expansion could extend the token).  This mirrors ABP's
# own candidate regex.
_KEYWORD_RE = re.compile(
    r"(?:^\|{1,2}|[^a-z0-9%*])([a-z0-9%]{3,})(?=[^a-z0-9%*]|$)",
    re.IGNORECASE,
)
_COMMON_KEYWORDS = frozenset({"http", "https", "www", "com"})


@register_process_cache
@lru_cache(maxsize=65536)
def keyword_candidates(source: str) -> tuple[str, ...]:
    """All safe index keywords for a pattern (real-ABP style).

    A keyword is a literal token guaranteed to appear, separator-
    delimited, in every URL the pattern matches; the engine buckets
    filters by one of them so each request only tests a handful of
    candidates.  Returns an empty tuple when no safe keyword exists
    (regex patterns, very short or wildcard-adjacent literals) — such
    filters go into the always-checked bucket.

    Memoised per pattern text (and therefore effectively computed once
    per filter): :meth:`repro.filters.index.FilterIndex.add` consults
    the candidates on every insertion, and the survey inserts the same
    lists into multiple engine configurations.
    """
    if len(source) >= 2 and source.startswith("/") and source.endswith("/"):
        return ()
    if not source.isascii():
        source = source.translate(ASCII_FOLD)
    candidates = []
    for match in _KEYWORD_RE.finditer(source):
        word = match.group(1).lower()
        if word not in _COMMON_KEYWORDS:
            candidates.append(word)
        # A trailing end-of-pattern token is only safe when the pattern is
        # end-anchored; _KEYWORD_RE's $ alternative admits it, so filter
        # out unanchored trailing tokens here.
    if candidates and not source.endswith(("|", "^")):
        last = candidates[-1]
        if source.lower().endswith(last):
            candidates.pop()
    return tuple(candidates)


#: A ``/.../`` body of literal characters only: none of them is a regex
#: metacharacter, so the body must occur verbatim in the URL.
_LITERAL_REGEX_BODY = re.compile(r"[A-Za-z0-9%_,;=&-]+")
#: A token with a non-token character on both sides inside the body.
_INNER_TOKEN_RE = re.compile(r"(?<=[^a-z0-9%])[a-z0-9%]{3,}(?=[^a-z0-9%])",
                             re.IGNORECASE)


def literal_body(source: str) -> str | None:
    """The body of a ``/.../`` pattern made only of literal characters.

    ``None`` for any other pattern.  Such a body holds no regex
    metacharacter, so it matches exactly where it occurs verbatim (up to
    case, without ``$match-case``); it always compiles.

    >>> literal_body("/pop-zone-2/"), literal_body("/ad[0-9]+/")
    ('pop-zone-2', None)
    """
    if len(source) >= 2 and source.startswith("/") and source.endswith("/"):
        body = source[1:-1]
        if _LITERAL_REGEX_BODY.fullmatch(body):
            return body
    return None


def required_tokens(source: str) -> tuple[str, ...]:
    """Tokens every URL the pattern matches contains as whole tokens.

    A URL token is a maximal run of ``[a-z0-9%]`` after folding and
    lowercasing (the keyword index's tokeniser).  For an ordinary
    pattern these are all of :func:`keyword_candidates`; each is
    guaranteed, which is what the keyword index's completeness rests
    on.  A ``/.../`` pattern whose body is only literal characters must
    occur verbatim, so its tokens delimited on both sides *inside* the
    body are required too: ``/pop-zone-2/`` gives ``zone`` (``pop`` may
    continue a longer URL token, ``2`` is too short).  Any other regex
    gives ``()``.  The compiled index skips a candidate whose required
    tokens are not all in the URL, without changing which filters
    match.

    >>> required_tokens("/pop-zone-2/"), required_tokens("/ad[0-9]+/")
    (('zone',), ())
    """
    body = literal_body(source)
    if body is not None:
        return tuple(token.lower()
                     for token in _INNER_TOKEN_RE.findall(body))
    return keyword_candidates(source)   # () for any other regex


def extract_keyword(source: str) -> str:
    """The default index keyword: the longest safe candidate (or "")."""
    candidates = keyword_candidates(source)
    if not candidates:
        return ""
    return max(candidates, key=len)
