"""Unit tests for the compiled filter index."""

from repro.filters.compiled.index import TOKEN_TABLE, CompiledFilterIndex
from repro.filters.index import FilterIndex, _url_tokens
from repro.filters.options import ContentType
from repro.filters.parser import parse_filter
from repro.obs import observe


def rf(text):
    flt = parse_filter(text)
    assert type(flt).__name__ == "RequestFilter", text
    return flt


FILTERS = [
    "||adzerk.net^$third-party",
    "||googleadservices.com^",
    "/banner[0-9]+/",                      # fallback (regex)
    "||stats.g.doubleclick.net^$script",
    "ads/banner^",
    "||example.com/ad.jpg|",
    "@@||gstatic.com^$third-party",
]

URLS = [
    "",
    "http://static.adzerk.net/reddit/ads.html",
    "http://www.googleadservices.com/pagead/conversion.js",
    "HTTP://STATIC.ADZERK.NET/UPPER/CASE",
    "http://x.com/banner12.gif",
    "http://y.com/ads/banner?z=googleadservices",   # multi-bucket hit
    "http://example.com/ad.jpg",
    "http://nothing.example/",
    "http://ex%61mple.com/%2Fads%2F",               # percent tokens
    "http://münchen.example/adzerk.net/x",          # non-ASCII detour
    "http://Kelvin.example/ads",               # 'K' lowers to ascii k
]


def build_pair(texts=FILTERS):
    legacy = FilterIndex([rf(text) for text in texts])
    return legacy, CompiledFilterIndex.compile(legacy)


class TestTokenTable:
    def test_token_table_lowercases_and_collapses(self):
        raw = b"HTTP://Ads.Example/x?y=1%2F"
        toks = raw.translate(TOKEN_TABLE).split()
        assert toks == [b"http", b"ads", b"example", b"x", b"y", b"1%2f"]


class TestCompiledIndexParity:
    def test_candidate_sequences_byte_identical(self):
        legacy, compiled = build_pair()
        for url in URLS:
            assert ([f.text for f in compiled.candidates(url)]
                    == [f.text for f in legacy.candidates(url)]), url

    def test_match_first_and_match_all_identical(self):
        legacy, compiled = build_pair()
        for url in URLS:
            host = url.split("/")[2] if "//" in url else "h.example"
            for content_type in (ContentType.IMAGE, ContentType.SCRIPT):
                assert (compiled.match_first(url, content_type,
                                             "page.com", host)
                        is legacy.match_first(url, content_type,
                                              "page.com", host))
                assert (compiled.match_all(url, content_type,
                                           "page.com", host)
                        == legacy.match_all(url, content_type,
                                            "page.com", host))

    def test_instrumented_path_identical_to_fast_path(self):
        _, compiled = build_pair()
        for url in URLS:
            bare = list(compiled.candidates(url))
            with observe():
                instrumented = list(compiled.candidates(url))
            assert instrumented == bare, url

    def test_zero_hit_returns_shared_fallback_tuple(self):
        _, compiled = build_pair()
        first = compiled.candidates("http://nothing.example/")
        second = compiled.candidates("http://other.example/")
        assert first is second            # one shared, reusable tuple
        assert isinstance(first, tuple)

    def test_candidates_sequence_is_reusable(self):
        _, compiled = build_pair()
        result = compiled.candidates("http://static.adzerk.net/x")
        assert list(result) == list(result)   # not a one-shot generator

    def test_iteration_and_len_match_legacy(self):
        legacy, compiled = build_pair()
        assert len(compiled) == len(legacy)
        assert [f.text for f in compiled] == [f.text for f in legacy]

    def test_bucket_of_covers_every_filter(self):
        _, compiled = build_pair()
        for flt in compiled:
            kid = compiled.bucket_of(flt)
            if kid == -1:
                assert flt in compiled.fallback
            else:
                assert flt in compiled.bucket_filters(kid)

    def test_stats_keys(self):
        _, compiled = build_pair()
        stats = compiled.stats()
        assert set(stats) == {"filters", "keywords", "fallback"}
        assert stats["filters"] == len(FILTERS)

    def test_non_ascii_url_uses_legacy_tokens(self):
        # The Kelvin sign lowercases into ASCII 'k'; byte-level
        # lowercasing would miss the bucket the legacy tokeniser finds.
        legacy, compiled = build_pair(["||kelvin.example^"])
        url = "http://KELVIN.example/x"
        assert "kelvin" in _url_tokens(url)
        assert ([f.text for f in compiled.candidates(url)]
                == [f.text for f in legacy.candidates(url)])


class TestFrozenEngineUsesCompiledIndex:
    def test_freeze_compiles_both_indexes(self):
        from repro.filters.engine import AdblockEngine
        from repro.filters.filterlist import parse_filter_list
        engine = AdblockEngine()
        engine.subscribe(parse_filter_list(
            "||ads.example^\n@@||good.example^$document", name="easylist"))
        snapshot = engine.freeze()
        assert isinstance(snapshot.blocking, CompiledFilterIndex)
        assert isinstance(snapshot.exceptions, CompiledFilterIndex)
        stats = snapshot.compiled_stats()
        assert set(stats) == {"blocking", "exceptions"}
        assert stats["blocking"]["filters"] == 1
