"""Property-based tests for the filter engine (hypothesis)."""

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.index import FilterIndex
from repro.filters.options import ContentType, parse_options
from repro.filters.parser import (
    ElementFilter,
    InvalidFilter,
    RequestFilter,
    parse_filter,
)
from repro.filters.pattern import (
    PatternError,
    compile_pattern,
    extract_keyword,
)

_LABEL = st.text(alphabet=string.ascii_lowercase + string.digits,
                 min_size=1, max_size=8).filter(
                     lambda s: s[0] not in string.digits)
_DOMAIN = st.builds(lambda a, b: f"{a}.{b}", _LABEL,
                    st.sampled_from(["com", "net", "org", "co.uk", "de"]))
_PATH_CHARS = string.ascii_lowercase + string.digits + "/-_."
_PATH = st.text(alphabet=_PATH_CHARS, max_size=20)


class TestParserTotality:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_parse_filter_never_raises(self, line):
        result = parse_filter(line)
        assert result is not None

    @given(st.text(max_size=120))
    def test_parse_preserves_raw_text(self, line):
        stripped = line.rstrip("\n").strip()
        result = parse_filter(line)
        if not isinstance(result, InvalidFilter) and stripped and \
                not stripped.startswith("["):
            assert result.text == stripped


class TestPatternProperties:
    @given(_DOMAIN, _PATH)
    def test_anchored_host_matches_own_url(self, domain, path):
        pattern = compile_pattern(f"||{domain}^")
        assert pattern.matches(f"http://{domain}/{path}")
        assert pattern.matches(f"https://sub.{domain}/{path}")

    @given(_DOMAIN)
    def test_anchored_host_rejects_prefixed_host(self, domain):
        pattern = compile_pattern(f"||{domain}^")
        assert not pattern.matches(f"http://evil{domain}/")

    @given(st.text(alphabet=_PATH_CHARS, min_size=1, max_size=15))
    def test_literal_pattern_matches_urls_containing_it(self, literal):
        pattern = compile_pattern(literal)
        assert pattern.matches(f"http://x.com/{literal}")

    @given(st.text(alphabet=_PATH_CHARS + "*^|", max_size=20))
    @settings(max_examples=300)
    def test_compilation_never_raises_for_filter_syntax(self, source):
        if not source:
            return
        if len(source) >= 2 and source[0] == source[-1] == "/":
            # A ``/.../`` source is a raw regex (``/*/`` is not a valid
            # one): compiling may raise PatternError, and the parser
            # must then turn the filter into an InvalidFilter.
            try:
                compile_pattern(source)
            except PatternError:
                assert isinstance(parse_filter(source), InvalidFilter)
            return
        compile_pattern(source)

    @given(_DOMAIN, _PATH)
    def test_case_insensitive_matching(self, domain, path):
        pattern = compile_pattern(f"||{domain}^")
        assert pattern.matches(f"HTTP://{domain.upper()}/{path}")


class TestKeywordInvariant:
    """The index-correctness invariant: if a pattern has a keyword, the
    keyword appears as a full token of every URL the pattern matches."""

    _TOKEN_RE = re.compile(r"[a-z0-9%]{3,}")

    @given(_DOMAIN, _PATH)
    def test_keyword_is_url_token(self, domain, path):
        source = f"||{domain}/{path}^" if path else f"||{domain}^"
        keyword = extract_keyword(source)
        if not keyword:
            return
        pattern = compile_pattern(source)
        url = f"http://{domain}/{path}"
        if pattern.matches(url):
            assert keyword in self._TOKEN_RE.findall(url.lower())


class TestIndexEquivalence:
    @given(st.lists(_DOMAIN, min_size=1, max_size=8, unique=True),
           _DOMAIN, _PATH)
    @settings(max_examples=150, deadline=None)
    def test_index_equals_linear_scan(self, filter_domains, req_domain,
                                      path):
        filters = []
        for d in filter_domains:
            flt = parse_filter(f"||{d}^$third-party")
            assert isinstance(flt, RequestFilter)
            filters.append(flt)
        index = CompiledFilterIndex.compile(FilterIndex(filters))
        url = f"http://{req_domain}/{path}"
        linear = {
            f.text for f in filters
            if f.matches(url, ContentType.IMAGE, "page.com", req_domain)
        }
        indexed = {
            f.text for f in index.match_all(
                url, ContentType.IMAGE, "page.com", req_domain)
        }
        assert indexed == linear


class TestOptionProperties:
    @given(st.lists(st.sampled_from(
        ["script", "image", "stylesheet", "object", "subdocument",
         "third-party", "~third-party", "match-case", "donottrack"]),
        min_size=1, max_size=5, unique=True))
    def test_valid_option_lists_parse(self, keywords):
        options = parse_options(",".join(keywords))
        assert options.raw == ",".join(keywords)

    @given(st.lists(_DOMAIN, min_size=1, max_size=5, unique=True))
    def test_domain_option_round_trip(self, domains):
        options = parse_options("domain=" + "|".join(domains))
        assert set(options.domains_include) == set(domains)
        for domain in domains:
            assert options.applies_on_domain(domain)

    @given(_DOMAIN, _DOMAIN)
    def test_unrelated_domain_never_admitted(self, included, other):
        from repro.web.url import is_subdomain_of

        options = parse_options(f"domain={included}")
        if not is_subdomain_of(other, included):
            assert not options.applies_on_domain(other)


class TestElementFilterProperties:
    @given(st.lists(_DOMAIN, min_size=1, max_size=4, unique=True))
    def test_element_domains_round_trip(self, domains):
        flt = parse_filter(",".join(domains) + "##.ad")
        assert isinstance(flt, ElementFilter)
        assert set(flt.domains_include) == set(domains)
        for domain in domains:
            assert flt.applies_on_domain(domain)
