"""Unit tests for the keyword-bucketed filter index."""

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType
from repro.filters.parser import parse_filter


def rf(text):
    flt = parse_filter(text)
    assert type(flt).__name__ == "RequestFilter", text
    return flt


def compiled(filters):
    """The index an engine matches through: built, then compiled."""
    return CompiledFilterIndex.compile(FilterIndex(filters))


class TestIndexCompleteness:
    def test_keyword_filter_found(self):
        index = compiled([rf("||adzerk.net^$third-party")])
        found = index.match_all(
            "http://static.adzerk.net/x", ContentType.IMAGE,
            "reddit.com", "static.adzerk.net")
        assert found

    def test_fallback_filter_always_probed(self):
        index = compiled([rf("/ad[s]?/")])  # regex: no keyword
        found = index.match_all(
            "http://x.com/ads/1.gif", ContentType.IMAGE, "p.com", "x.com")
        assert found

    def test_no_false_negatives_against_linear_scan(self):
        filters = [
            rf("||adzerk.net^"),
            rf("||googleadservices.com^$third-party"),
            rf("/banner[0-9]+/"),
            rf("||stats.g.doubleclick.net^$script,image"),
            rf("ads/banner^"),
            rf("||example.com/ad.jpg|"),
        ]
        index = compiled(filters)
        urls = [
            "http://static.adzerk.net/reddit/ads.html",
            "http://www.googleadservices.com/pagead/conversion.js",
            "http://x.com/banner12.gif",
            "http://stats.g.doubleclick.net/dc.js",
            "http://y.com/ads/banner?z",
            "http://example.com/ad.jpg",
            "http://nothing.example/",
        ]
        for url in urls:
            for content_type in (ContentType.IMAGE, ContentType.SCRIPT,
                                 ContentType.SUBDOCUMENT):
                linear = {
                    f.text for f in filters
                    if f.matches(url, content_type, "page.com",
                                 _host(url))
                }
                indexed = {
                    f.text
                    for f in index.match_all(url, content_type,
                                             "page.com", _host(url))
                }
                assert indexed == linear, (url, content_type)

    def test_len_and_iter(self):
        filters = [rf("||a-site.com^"), rf("/re/")]
        index = FilterIndex(filters)
        assert len(index) == 2
        assert {f.text for f in index} == {f.text for f in filters}

    def test_candidates_prune_unrelated_buckets(self):
        index = FilterIndex([
            rf("||adzerk.net^"),
            rf("||quantserve.com^"),
            rf("||taboola.com^"),
        ])
        candidates = list(index.candidates("http://adzerk.net/x"))
        assert len(candidates) == 1
        assert candidates[0].text == "||adzerk.net^"

    def test_sitekey_filter_lands_in_fallback(self):
        flt = rf("@@$sitekey=KEY,document")
        index = compiled([flt])
        found = index.match_all("http://anything.com/",
                                ContentType.DOCUMENT,
                                "anything.com", "anything.com",
                                sitekey="KEY")
        assert found == [flt]


class TestUrlTokens:
    def test_url_tokens_is_plain_and_distinct(self):
        from repro.filters.index import _url_tokens
        tokens = _url_tokens("http://ads.cdn.example/ads/cdn/ads?x=1")
        assert tokens == ("http", "ads", "cdn", "example")
        # No lru_cache wrapper left: nothing to re-warm after fork.
        assert not hasattr(_url_tokens, "cache_info")


def _host(url: str) -> str:
    from repro.web.url import parse_url

    return parse_url(url).host
