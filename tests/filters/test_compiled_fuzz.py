"""Seeded differential fuzz: compiled index vs reference probe, 10k+ pairs.

Every (filter list, URL) pair asserts the contracts the compiled index
must keep:

* **completeness** — the compiled candidate set is a superset of the
  filters that actually match (never-filter-out-a-match);
* **byte-identical ordering** — the compiled candidate *sequence*
  equals the reference probe's (``FilterIndex.candidates``), element
  for element;
* **order oracle** — ``match_all`` returns the identical filter objects,
  in the identical order, as the matching filters of the reference
  sequence, for a content type drawn from every ``ContentType`` member
  (privilege and deprecated types included) plus flag combinations, so
  the compiled index's typed fallbacks and its whole fallback are both
  exercised; every pair also checks ``IMAGE`` and ``SCRIPT``.  That
  order is every engine's activation order;
* **linear-scan oracle** — the set ``match_all`` returns equals the set
  of all the list's filters whose ``matches()`` is true, so a required
  token the compiled index skips on must really be required.

The parity pass runs twice: bare, and inside ``observe()`` (the
serving daemon's instrumented path).  The corpus holds literal
``/.../`` bodies, which have required tokens but no keyword and which
the compiled index tests as lowercase substrings: some under
``$match-case``, and EasyList-like blocks of ``/word-zone-N/`` bodies
that share one required-token set.  URLs are built from those bodies:
glued to longer tokens, in upper or mixed case, beside a near miss of
another body, and spelled with the non-ASCII code points a
case-insensitive regex equates with ASCII letters (Kelvin ``K`` for
``k``, long ``ſ`` for ``s``, dotless ``ı`` and dotted ``İ`` for ``i``).

Everything is derived from one fixed seed, so a failure reproduces
exactly; bump ``FUZZ_SEED`` locally to explore a different corpus.
"""

import random

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import RequestFilter, parse_filter
from repro.obs import observe

FUZZ_SEED = 20150


HOST_WORDS = ["ads", "adserv", "track", "stats", "pixel", "cdn",
              "static", "media", "click", "banner", "pop", "sync",
              "doubleclick", "adzerk", "gstatic", "metrics", "beacon"]
TLDS = ["com", "net", "org", "example", "co.uk"]
PATH_WORDS = ["banner", "ads", "img", "js", "frame", "track", "a", "xy",
              "advert", "%2fads", "1x1", "320x50", "ADS", "Pixel"]
OPTIONS = ["", "$third-party", "$script", "$image,third-party",
           "$domain=example.com", "$~image", "$subdocument",
           "$document", "$elemhide", "$document,elemhide",
           "$script,stylesheet", "$~script,~subdocument",
           "$xmlhttprequest,other", "$object,object-subrequest",
           "$background", "$ping,dtd", "$xbl", "$match-case",
           "$image,match-case"]
#: Characters of literal ``/.../`` bodies around their tokens.
BODY_SEPARATORS = ["-", "_", "=", ";", "&", ","]
#: Letters a case-insensitive regex equates with non-ASCII code points.
FOLDED = {"s": "\u017f", "i": "\u0131", "I": "\u0130", "k": "\u212a"}

#: Every member, plus combinations only the Python API can pass; these
#: take the compiled index's whole fallback.
CONTENT_TYPES = list(ContentType) + [
    ContentType.SCRIPT | ContentType.IMAGE,
    ContentType.DOCUMENT | ContentType.ELEMHIDE,
    ContentType.SUBDOCUMENT | ContentType.PING,
]


def _literal_body(rng: random.Random) -> str:
    """A ``/.../`` body with no regex metacharacter: ``-zone-14``."""
    words = [rng.choice(HOST_WORDS + ["zone", "Ads", "1x1"])
             for _ in range(rng.randrange(1, 4))]
    parts = [rng.choice(["", rng.choice(HOST_WORDS)])]
    for word in words:
        parts += [rng.choice(BODY_SEPARATORS), word]
    parts += [rng.choice(BODY_SEPARATORS), rng.choice(["", "2", "14"])]
    return "".join(parts)


def _filter_text(rng: random.Random) -> str:
    shape = rng.randrange(7)
    host = (rng.choice(HOST_WORDS) + rng.choice(["", "-", "."])
            + rng.choice(HOST_WORDS) + "." + rng.choice(TLDS))
    path = "/".join(rng.choice(PATH_WORDS)
                    for _ in range(rng.randrange(1, 3)))
    prefix = "@@" if rng.random() < 0.25 else ""
    if shape == 0:
        return f"{prefix}||{host}^{rng.choice(OPTIONS)}"
    if shape == 1:
        return f"{prefix}||{host}/{path}{rng.choice(OPTIONS)}"
    if shape == 2:
        return f"{prefix}{path}^{rng.choice(OPTIONS)}"
    if shape == 3:                       # wildcards shorten keywords
        return f"{prefix}||{host}/*/{path}"
    if shape == 4:                       # raw regex: fallback bucket
        return f"{prefix}/{rng.choice(PATH_WORDS)}[0-9]+/"
    if shape == 5:                       # literal regex: required tokens
        option = (rng.choice(["$match-case", "$image,match-case"])
                  if rng.random() < 0.2 else rng.choice(OPTIONS))
        return f"{prefix}/{_literal_body(rng)}/{option}"
    return f"{prefix}|http://{host}/{path}|"


def _url(rng: random.Random, list_hosts: list[str],
         list_paths: list[str], list_bodies: list[str]) -> str:
    url = _plain_url(rng, list_hosts, list_paths, list_bodies)
    if rng.random() < 0.1:
        url = "".join(FOLDED.get(char, char) if rng.random() < 0.5
                      else char for char in url)
    return url


def _zone_block(rng: random.Random) -> list[RequestFilter]:
    """Consecutive literal filters sharing the required token ``zone``
    (EasyList's ``/banner-zone-N/$image`` tail), a few of them
    ``$match-case``, so runs are long and split where needles stop."""
    word = rng.choice(HOST_WORDS + ["Ads", "ZONE"])
    texts = []
    for number in rng.sample(range(1, 40), rng.randrange(3, 13)):
        option = rng.choice(["$image", "$image", "", "$image,match-case"])
        texts.append(f"/{word}-zone-{number}/{option}")
    return [parse_filter(text) for text in texts]


def _near_miss(rng: random.Random, body: str) -> str:
    """``body`` changed so it no longer occurs: a digit or letter off,
    or its last character cut."""
    roll = rng.randrange(3)
    if roll == 0 and any(char.isdigit() for char in body):
        return "".join("7" if char.isdigit() else char for char in body)
    if roll == 1:
        at = rng.randrange(len(body))
        return body[:at] + ("q" if body[at] != "q" else "w") + body[at + 1:]
    return body[:-1]


def _body_url(rng: random.Random, list_bodies: list[str]) -> str:
    """A URL around one of the list's literal bodies, spelled so the
    substring test must fold case exactly as ``re.IGNORECASE`` does."""
    body = rng.choice(list_bodies)
    roll = rng.random()
    if roll < 0.2:
        body = body.upper()
    elif roll < 0.4:
        body = "".join(char.swapcase() if rng.random() < 0.5 else char
                       for char in body)
    elif roll < 0.55:
        body = "".join(FOLDED.get(char, char) if rng.random() < 0.7
                       else char for char in body)
    if rng.random() < 0.3:
        # Beside a near miss of itself or of another body, either side.
        miss = _near_miss(rng, rng.choice(list_bodies))
        body = (f"{miss}/{body}" if rng.random() < 0.5
                else f"{body}{rng.choice(['', '/'])}{miss}")
    elif rng.random() < 0.15:
        body = _near_miss(rng, body)
    # Glued (or not) to the text around it, so its edge tokens may or
    # may not be URL tokens.
    return (f"http://{rng.choice(HOST_WORDS)}.com/"
            f"{rng.choice(['', 'x', '/', 'a-'])}"
            f"{body}"
            f"{rng.choice(['', 'y', '/', '.gif', '-b'])}")


def _plain_url(rng: random.Random, list_hosts: list[str],
               list_paths: list[str], list_bodies: list[str]) -> str:
    if list_bodies and rng.random() < 0.2:
        return _body_url(rng, list_bodies)
    segments = [rng.choice(PATH_WORDS + HOST_WORDS)
                for _ in range(rng.randrange(0, 4))]
    if list_hosts and list_paths and rng.random() < 0.4:
        # One of the list's own ``||host`` anchors plus two of its
        # ``path^`` bodies: URLs that hit several keyword buckets and
        # match filters from more than one, so the order of the
        # evaluated candidates is exercised, not only their membership.
        return (f"http://{rng.choice(list_hosts)}/{rng.choice(list_paths)}"
                f"/{rng.choice(list_paths)}/")
    host = (rng.choice(HOST_WORDS) + rng.choice(["", "-x"])
            + "." + rng.choice(TLDS))
    url = f"http://{host}/" + "/".join(segments)
    roll = rng.random()
    if roll < 0.05:
        url = url.upper()
    elif roll < 0.08:
        url += "?q=m%C3%BCnchenü"     # non-ASCII detour
    elif roll < 0.10:
        url += "?" + rng.choice(HOST_WORDS) + "=" + rng.choice(HOST_WORDS)
    return url


def _build_corpus(seed: int, lists: int, urls_per_list: int):
    rng = random.Random(seed)
    for _ in range(lists):
        texts = {_filter_text(rng)
                 for _ in range(rng.randrange(4, 40))}
        filters = [flt for flt in map(parse_filter, sorted(texts))
                   if isinstance(flt, RequestFilter)]
        if not filters:
            continue
        rng.shuffle(filters)
        if rng.random() < 0.5:
            at = rng.randrange(len(filters) + 1)
            filters[at:at] = _zone_block(rng)
        list_hosts = sorted({flt.pattern.anchored_hostname
                             for flt in filters
                             if flt.pattern is not None
                             and flt.pattern.anchored_hostname})
        list_paths = sorted({flt.pattern_text[:-1] for flt in filters
                             if flt.pattern_text[:1].isalnum()
                             and flt.pattern_text.endswith("^")})
        list_bodies = sorted({flt.pattern_text[1:-1] for flt in filters
                              if flt.pattern is not None
                              and flt.pattern.is_regex
                              and "[" not in flt.pattern_text})
        urls = [_url(rng, list_hosts, list_paths, list_bodies)
                for _ in range(urls_per_list)]
        yield filters, urls


class TestDifferentialFuzz:
    LISTS = 60
    URLS_PER_LIST = 180      # 60 x 180 >= 10,800 (filter list, URL) pairs

    def _fuzz(self) -> tuple[int, list]:
        pairs = 0
        mismatches = []
        type_rng = random.Random(FUZZ_SEED + 2)
        for filters, urls in _build_corpus(FUZZ_SEED, self.LISTS,
                                           self.URLS_PER_LIST):
            legacy = FilterIndex(filters)
            compiled = CompiledFilterIndex.compile(legacy)
            for url in urls:
                pairs += 1
                content_type = type_rng.choice(CONTENT_TYPES)
                legacy_seq = list(legacy.candidates(url))
                compiled_seq = list(compiled.candidates(url))
                if compiled_seq != legacy_seq:
                    mismatches.append(("sequence", url,
                                       [f.text for f in legacy_seq],
                                       [f.text for f in compiled_seq]))
                    continue
                host = url.split("/")[2].lower()
                args = (url, content_type, "page.example", host)
                matching = [flt for flt in filters if flt.matches(*args)]
                candidate_ids = {id(flt) for flt in compiled_seq}
                if not all(id(flt) in candidate_ids for flt in matching):
                    mismatches.append(("completeness", url,
                                       [f.text for f in matching], None))
                found = compiled.match_all(*args)
                if {id(flt) for flt in found} != {id(flt) for flt in matching}:
                    mismatches.append(("linear-scan", url, content_type,
                                       [f.text for f in matching],
                                       [f.text for f in found]))
                # The drawn type, plus the two types whose typed
                # fallbacks differ most on every pair.
                for ctype in (content_type, ContentType.IMAGE,
                              ContentType.SCRIPT):
                    call = (url, ctype, "page.example", host)
                    want = [f for f in legacy_seq if f.matches(*call)]
                    got = compiled.match_all(*call)
                    if (len(want) != len(got)
                            or not all(a is b for a, b in zip(want, got))):
                        mismatches.append(("order", url, ctype,
                                           [f.text for f in got]))
        return pairs, mismatches

    def test_compiled_equals_legacy_on_10k_pairs(self):
        pairs, mismatches = self._fuzz()
        assert pairs >= 10_000, f"corpus too small: {pairs} pairs"
        assert not mismatches, mismatches[:5]

    def test_compiled_equals_legacy_when_observed(self):
        with observe():
            pairs, mismatches = self._fuzz()
        assert pairs >= 10_000, f"corpus too small: {pairs} pairs"
        assert not mismatches, mismatches[:5]

    def test_corpus_is_deterministic(self):
        def digest():
            return [
                ([f.text for f in filters], urls[:3])
                for filters, urls in _build_corpus(FUZZ_SEED, 3, 5)
            ]
        assert digest() == digest()


class TestArtifactFuzz:
    """Round-trip a slice of the fuzz corpus through the artifact."""

    def test_round_trip_preserves_candidates(self):
        from repro.filters.compiled import parse_artifact, serialize_artifact
        from repro.filters.engine import EngineSnapshot
        from repro.filters.filterlist import FilterList

        rng = random.Random(FUZZ_SEED + 1)
        for filters, urls in _build_corpus(FUZZ_SEED + 1, 8, 40):
            flist = FilterList(name="fuzz", entries=list(filters))
            snapshot = EngineSnapshot.build([flist])
            blob = serialize_artifact(snapshot, fingerprint="ab" * 4)
            rebuilt = parse_artifact(blob).build_snapshot([flist])
            for url in urls:
                for name in ("blocking", "exceptions"):
                    assert (list(getattr(rebuilt, name).candidates(url))
                            == list(getattr(snapshot, name)
                                    .candidates(url))), (url, name)
            # One random bit flip in the body must never go unnoticed.
            corrupt = bytearray(blob)
            corrupt[rng.randrange(len(corrupt))] ^= 0x40
            try:
                parse_artifact(bytes(corrupt))
            except Exception as exc:
                assert type(exc).__name__ == "CompiledArtifactError"
            else:  # the flip landed in the CRC'd-but-unused padding? no:
                raise AssertionError("corrupted artifact was accepted")
