"""Unit tests for request-pattern compilation (Appendix A.1)."""

import pytest

import re

from repro.filters.index import _url_tokens
from repro.filters.parser import InvalidFilter, parse_filter
from repro.filters.pattern import (
    ASCII_FOLD,
    PatternError,
    compile_pattern,
    extract_keyword,
    keyword_candidates,
    literal_body,
    required_tokens,
)


def matches(pattern: str, url: str, **kwargs) -> bool:
    return compile_pattern(pattern, **kwargs).matches(url)


class TestPlainPatterns:
    def test_literal_substring(self):
        assert matches("ads/banner", "http://x.com/ads/banner.gif")

    def test_implicit_wildcards_both_ends(self):
        assert matches("/ad-frame/", "http://x.com/a/ad-frame/b.gif")

    def test_non_match(self):
        assert not matches("/ad-frame/", "http://x.com/content/")

    def test_case_insensitive_by_default(self):
        assert matches("ADS", "http://x.com/ads/1")

    def test_match_case(self):
        assert not matches("ADS", "http://x.com/ads/1", match_case=True)
        assert matches("ADS", "http://x.com/ADS/1", match_case=True)


class TestWildcards:
    def test_star_matches_any_run(self):
        assert matches("ads/*/banner", "http://x.com/ads/2015/04/banner")

    def test_star_matches_empty(self):
        assert matches("ads*banner", "http://x.com/adsbanner")

    def test_adjacent_stars_collapse(self):
        pattern = compile_pattern("a**b")
        assert pattern.matches("http://x.com/a123b")

    def test_paper_google_module_pattern(self):
        pattern = "||google.com/ads/search/module/ads/*/search.js"
        assert matches(pattern,
                       "http://www.google.com/ads/search/module/ads/"
                       "v3/search.js")


class TestAnchors:
    def test_start_anchor(self):
        assert matches("|http://example.com", "http://example.com/x")
        assert not matches("|example.com", "http://example.com/")

    def test_end_anchor(self):
        assert matches("ad.jpg|", "http://e.com/ad.jpg")
        assert not matches("ad.jpg|", "http://e.com/ad.jpg.exe")

    def test_paper_example_end_anchor(self):
        # ||example.com/ad.jpg| matches https variant but not .exe
        pattern = "||example.com/ad.jpg|"
        assert matches(pattern, "https://example.com/ad.jpg")
        assert matches(pattern, "http://good.example.com/ad.jpg")
        assert not matches(pattern, "https://example.com/ad.jpg.exe")


class TestExtendedAnchor:
    def test_matches_domain_and_subdomains(self):
        assert matches("||adzerk.net^", "http://adzerk.net/x")
        assert matches("||adzerk.net^", "http://static.adzerk.net/x")

    def test_multiple_schemes(self):
        assert matches("||adzerk.net^", "https://adzerk.net/")
        assert matches("||adzerk.net^", "ws://adzerk.net/")

    def test_does_not_match_mid_label(self):
        assert not matches("||adzerk.net^", "http://notadzerk.net/")

    def test_matches_at_label_boundary_only(self):
        assert matches("||zerk.net^", "http://a.zerk.net/")
        assert not matches("||zerk.net^", "http://adzerk.net/")

    def test_anchored_hostname_extracted(self):
        pattern = compile_pattern("||adzerk.net^$x"[:-2])
        assert pattern.anchored_hostname == "adzerk.net"

    def test_no_hostname_for_plain_patterns(self):
        assert compile_pattern("/ads/").anchored_hostname is None


class TestSeparator:
    def test_separator_matches_slash(self):
        assert matches("||e.com^path", "http://e.com/path")

    def test_separator_matches_end_of_url(self):
        assert matches("||adzerk.net^", "http://adzerk.net")

    def test_separator_matches_colon_and_query(self):
        assert matches("e.com^", "http://e.com:8000/")
        assert matches("q^", "http://x.com/q?a=1")

    def test_separator_rejects_word_chars(self):
        assert not matches("||e.com^", "http://e.comx/")
        # - . % and _ are NOT separators
        assert not matches("ads^", "http://x.com/ads-top/")
        assert not matches("ads^", "http://x.com/ads.gif")
        assert not matches("ads^", "http://x.com/ads%20/")

    def test_paper_www_google_example(self):
        # ||^www.google.com^ style separator use around the host
        assert matches("||www.google.com^", "http://www.google.com/#q=foo")
        assert not matches("||www.google.com^", "http://scholar.google.com")


class TestRegexPatterns:
    def test_raw_regex(self):
        assert matches("/ad[0-9]+/", "http://x.com/ad123")

    def test_raw_regex_no_implicit_wildcard_semantics(self):
        assert not matches("/^http://only/", "http://x.com/http://only")

    def test_bad_regex_raises(self):
        with pytest.raises(PatternError):
            compile_pattern("/[unclosed/")

    def test_is_regex_flag(self):
        assert compile_pattern("/x/").is_regex
        assert not compile_pattern("x").is_regex

    def test_literal_body_compiles_on_first_match(self):
        # Bypass the memo: a shared instance may already have matched.
        pattern = compile_pattern.__wrapped__("/Banner-zone-14/")
        assert pattern.is_regex
        assert pattern._regex is None
        assert pattern.matches("http://x.com/BANNER-Zone-14/a.gif")
        assert pattern._regex is not None
        assert not pattern.matches("http://x.com/banner-zone-1/a.gif")
        assert not compile_pattern.__wrapped__(
            "/Banner-zone-14/", match_case=True).matches(
            "http://x.com/banner-zone-14/a.gif")

    def test_ordinary_pattern_translates_on_first_match(self, monkeypatch):
        from repro.filters import pattern as pattern_module

        translated = []
        real = pattern_module._translate

        def counting(source):
            translated.append(source)
            return real(source)

        monkeypatch.setattr(pattern_module, "_translate", counting)
        pattern = compile_pattern.__wrapped__("||Ads.example.com^*banner")
        assert pattern.anchored_hostname == "ads.example.com"
        assert translated == []
        assert pattern.matches("https://cdn.ads.example.com/x/banner.gif")
        assert not pattern.matches("http://ads.example.company/banner")
        assert translated == ["||Ads.example.com^*banner"]

    def test_other_raw_regex_compiles_at_parse_time(self):
        assert compile_pattern.__wrapped__("/ad[0-9]+/")._regex is not None

    def test_malformed_raw_regex_is_invalid_at_parse_time(self):
        flt = parse_filter("/ad[/")
        assert isinstance(flt, InvalidFilter)
        assert "bad regex" in flt.error

    @pytest.mark.parametrize("source,body", [
        ("/pop-zone-2/", "pop-zone-2"),
        ("/A%2C_b;c=d&e,f/", "A%2C_b;c=d&e,f"),
        ("/ad[0-9]+/", None),
        ("/ad.gif/", None),
        ("//", None),
        ("pop-zone-2", None),
    ])
    def test_literal_body(self, source, body):
        assert literal_body(source) == body


class TestKeywordExtraction:
    def test_anchored_host_keyword(self):
        assert extract_keyword("||adzerk.net^$third-party".split("$")[0]) \
            == "adzerk"

    def test_regex_has_no_keyword(self):
        assert extract_keyword("/ads[0-9]/") == ""

    def test_common_tokens_skipped(self):
        # "www" and "com" are too common to be useful bucket keys.
        assert extract_keyword("||www.com^") == ""

    def test_wildcard_adjacent_token_not_used(self):
        # "banner" touches a wildcard, so a URL token could extend it.
        keyword = extract_keyword("banner*")
        assert keyword == ""

    def test_longest_token_wins(self):
        assert extract_keyword("||googleadservices.com^") == (
            "googleadservices")

    def test_keyword_is_token_of_matching_urls(self):
        import re

        pattern = "||stats.g.doubleclick.net^"
        keyword = extract_keyword(pattern)
        url = "http://stats.g.doubleclick.net/dc.js"
        assert compile_pattern(pattern).matches(url)
        assert keyword in re.findall(r"[a-z0-9%]{3,}", url)

    def test_unanchored_leading_token_not_used(self):
        # Pattern "ads/x^" could match ".../myads/x" where "ads" is not
        # a URL token, so it must not become the keyword.
        assert extract_keyword("ads/x^") != "ads"


class TestAsciiFold:
    def test_table_is_every_code_point_ignorecase_equates_with_ascii(self):
        ascii_class = re.compile("[a-z0-9]", re.IGNORECASE)
        letters = "abcdefghijklmnopqrstuvwxyz0123456789"
        scanned = {}
        for point in range(0x80, 0x110000):
            char = chr(point)
            if ascii_class.fullmatch(char):
                scanned[point] = next(
                    letter for letter in letters
                    if re.fullmatch(re.escape(letter), char, re.IGNORECASE))
        assert ASCII_FOLD == scanned

    @pytest.mark.parametrize("pattern,keywords", [
        ("||\u017ftats.com^", ("stats",)),
        ("||ads\u0131te.com^", ("adsite",)),
        ("||\u0130mg.example^", ("img", "example")),
    ])
    def test_keywords_are_folded_to_ascii(self, pattern, keywords):
        assert keyword_candidates(pattern) == keywords

    def test_url_tokens_fold_before_lowercasing(self):
        url = "http://\u017ftats.com/\u212aIT/\u0130D"
        assert compile_pattern("||stats.com/kit/id").matches(url)
        assert _url_tokens(url) == ("http", "stats", "com", "kit")


class TestRequiredTokens:
    def test_literal_regex_body_gives_inner_tokens(self):
        # "pop" may continue a longer URL token, "2" is too short.
        assert required_tokens("/pop-zone-2/") == ("zone",)
        assert required_tokens("/x_Ads;banner=1/") == ("ads", "banner")
        assert required_tokens("/-ads-banner&/") == ("ads", "banner")

    @pytest.mark.parametrize("pattern", [
        "/ad[0-9]+/", "/banner.zone/", "/a|zone-b/", "/x-zone-*/", "//",
        "/pop-zone/", "/zone-2/",
    ])
    def test_other_regexes_require_nothing(self, pattern):
        assert required_tokens(pattern) == ()

    @pytest.mark.parametrize("pattern", [
        "||adzerk.net^", "||google.com/adsense/search/ads.js",
        "|http://ads.example/banner|", "ads/x^", "banner*", "",
    ])
    def test_ordinary_pattern_requires_its_keyword_candidates(self, pattern):
        assert required_tokens(pattern) == keyword_candidates(pattern)

    @pytest.mark.parametrize("pattern,url", [
        ("/pop-zone-2/", "http://x.example/POP-ZONE-2.gif"),
        ("/pop-zone-2/", "http://x.example/?a=xpop-zone-2b"),
        ("/-ads-banner&/", "http://x.example/q-ADS-banner&z"),
        ("/-kit-/", "http://x.example/a-\u212aIT-b"),
        ("||google.com/ads/search.js", "http://google.com/ads/\u017fearch.js"),
    ])
    def test_required_tokens_are_tokens_of_matching_urls(self, pattern, url):
        assert compile_pattern(pattern).matches(url)
        assert set(required_tokens(pattern)) <= set(_url_tokens(url))
