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


def reference_matches(legacy, url, *call):
    """The matching filters of the reference probe's sequence."""
    return [f for f in legacy.candidates(url) if f.matches(url, *call)]


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

    def test_match_all_equals_reference_scan(self):
        legacy, compiled = build_pair()
        for url in URLS:
            host = url.split("/")[2] if "//" in url else "h.example"
            for content_type in (ContentType.IMAGE, ContentType.SCRIPT):
                call = (url, content_type, "page.com", host)
                got = compiled.match_all(*call)
                want = reference_matches(legacy, *call)
                assert len(got) == len(want), url
                assert all(a is b for a, b in zip(got, want)), url

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


class TestSingleHitTuples:
    def test_built_on_first_candidates_call_not_by_matching(self):
        legacy, compiled = build_pair()
        url = "http://www.googleadservices.com/pagead/conversion.js"
        compiled.match_all(url, ContentType.SCRIPT, "page.com",
                           "www.googleadservices.com")
        assert not compiled._single
        first = compiled.candidates(url)
        assert list(first) == list(legacy.candidates(url))
        assert compiled.candidates(url) is first


class TestCaseFoldedUrls:
    """Code points a case-insensitive regex equates with ASCII letters."""

    def test_host_with_long_s_matches_in_both_indexes(self):
        legacy, compiled = build_pair(["||stats.com^"])
        call = ("http://ſtats.com/x.js", ContentType.SCRIPT, "page.com",
                "ſtats.com")
        for found in (reference_matches(legacy, *call),
                      compiled.match_all(*call)):
            assert [f.text for f in found] == ["||stats.com^"]

    def test_snapshot_builds_patterns_with_folded_keywords(self):
        from repro.filters.engine import EngineSnapshot
        from repro.filters.filterlist import parse_filter_list
        for text, url, host in (
                ("||ſtats.com^", "http://stats.com/x.js", "stats.com"),
                ("||adsıte.com^", "http://ADSITE.com/", "adsite.com")):
            snapshot = EngineSnapshot.build(
                [parse_filter_list(text, name="easylist")])
            assert snapshot.session().check_request(
                url, ContentType.SCRIPT, "page.com", host).blocked, text

    def test_required_token_with_long_s_is_a_url_token(self):
        legacy, compiled = build_pair(["||google.com/ads/search.js"])
        url = "http://google.com/ads/ſearch.js"
        assert "search" in _url_tokens(url)
        call = (url, ContentType.SCRIPT, "page.com", "google.com")
        assert len(reference_matches(legacy, *call)) == 1
        assert len(compiled.match_all(*call)) == 1


class TestLazyFillsUnderThreads:
    def test_racing_first_probes_give_the_single_thread_answers(self):
        import sys
        import threading

        texts = FILTERS + ["/pop-zone-2/$image", "/-ads-frame-/",
                           "@@||google.de/ads/search/module/ads/*/search.js"]
        urls = URLS + ["http://x.example/pop-zone-2.gif",
                       "http://google.de/ads/search/module/ads/3/search.js",
                       "http://y.example/a-ads-frame-b"]
        calls = [(url, ctype, "page.com", "h.example")
                 for url in urls
                 for ctype in (ContentType.IMAGE, ContentType.SCRIPT)]
        _, reference = build_pair(texts)
        want = [reference.match_all(*call) for call in calls]
        want_seq = [list(reference.candidates(url)) for url in urls]
        failures = []

        def hammer(compiled, barrier):
            barrier.wait(timeout=10)
            for _ in range(20):
                if [compiled.match_all(*call) for call in calls] != want:
                    failures.append("match_all")
                if [list(compiled.candidates(url))
                        for url in urls] != want_seq:
                    failures.append("candidates")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                # A fresh index each round: every lazy fill is raced.
                _, compiled = build_pair(texts)
                barrier = threading.Barrier(6)
                threads = [threading.Thread(target=hammer,
                                            args=(compiled, barrier))
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]
