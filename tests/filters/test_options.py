"""Unit tests for filter-option parsing (Appendix A.4)."""

import pytest

from repro.filters.options import (
    ContentType,
    OptionError,
    TriState,
    parse_options,
)


class TestTypeOptions:
    def test_single_type(self):
        options = parse_options("script")
        assert options.include_types == ContentType.SCRIPT

    def test_multiple_types(self):
        options = parse_options("script,image")
        assert options.include_types == ContentType.SCRIPT | ContentType.IMAGE

    def test_negated_type_excludes(self):
        options = parse_options("~image")
        assert options.exclude_types == ContentType.IMAGE
        assert not options.include_types

    def test_masks_stay_content_types(self):
        """The parser ORs plain ints; what it stores is still typed."""
        options = parse_options("script,~image,third-party")
        assert type(options.include_types) is ContentType
        assert type(options.exclude_types) is ContentType
        assert type(parse_options("third-party").include_types) \
            is ContentType

    def test_effective_mask_with_includes(self):
        options = parse_options("script")
        assert options.effective_mask() == ContentType.SCRIPT

    def test_effective_mask_with_excludes(self):
        options = parse_options("~script")
        mask = options.effective_mask()
        assert not mask & ContentType.SCRIPT
        assert mask & ContentType.IMAGE

    def test_default_mask_excludes_document_and_elemhide(self):
        mask = ContentType.default_mask()
        assert not mask & ContentType.DOCUMENT
        assert not mask & ContentType.ELEMHIDE

    def test_document_must_be_explicit(self):
        options = parse_options("document")
        assert options.applies_to_type(ContentType.DOCUMENT)
        default = parse_options("script")
        assert not default.applies_to_type(ContentType.DOCUMENT)

    def test_all_named_types_parse(self):
        for keyword in ("script", "image", "stylesheet", "object",
                        "xmlhttprequest", "object-subrequest",
                        "subdocument", "document", "elemhide", "other"):
            options = parse_options(keyword)
            assert options.include_types, keyword

    def test_deprecated_options_tracked(self):
        options = parse_options("background,xbl")
        assert set(options.deprecated_used) == {"background", "xbl"}

    def test_case_insensitive_keywords(self):
        options = parse_options("SCRIPT,Image")
        assert options.include_types == ContentType.SCRIPT | ContentType.IMAGE


class TestThirdParty:
    def test_third_party(self):
        assert parse_options("third-party").third_party is TriState.YES

    def test_negated_third_party(self):
        assert parse_options("~third-party").third_party is TriState.NO

    def test_unset_by_default(self):
        assert parse_options("script").third_party is TriState.UNSET


class TestDomainOption:
    def test_single_domain(self):
        options = parse_options("domain=example.com")
        assert options.domains_include == ("example.com",)
        assert options.is_domain_restricted

    def test_multiple_domains(self):
        options = parse_options("domain=a.com|b.com")
        assert options.domains_include == ("a.com", "b.com")

    def test_negated_domain(self):
        options = parse_options("domain=~bad.com")
        assert options.domains_exclude == ("bad.com",)
        assert not options.is_domain_restricted

    def test_mixed_domains(self):
        options = parse_options("domain=a.com|~sub.a.com")
        assert options.domains_include == ("a.com",)
        assert options.domains_exclude == ("sub.a.com",)

    def test_applies_on_included_domain(self):
        options = parse_options("domain=example.com")
        assert options.applies_on_domain("example.com")
        assert options.applies_on_domain("www.example.com")
        assert not options.applies_on_domain("other.com")

    def test_exclusion_beats_broader_inclusion(self):
        options = parse_options("domain=example.com|~ads.example.com")
        assert options.applies_on_domain("example.com")
        assert not options.applies_on_domain("ads.example.com")
        assert not options.applies_on_domain("x.ads.example.com")

    def test_exclusion_only_admits_others(self):
        options = parse_options("domain=~bad.com")
        assert options.applies_on_domain("good.com")
        assert not options.applies_on_domain("bad.com")

    def test_unrestricted_applies_everywhere(self):
        options = parse_options("script")
        assert options.applies_on_domain("anything.example")

    def test_empty_domain_entry_rejected(self):
        with pytest.raises(OptionError):
            parse_options("domain=a.com||b.com")

    def test_bare_negation_rejected(self):
        with pytest.raises(OptionError):
            parse_options("domain=~")

    def test_domains_lowercased(self):
        options = parse_options("domain=Example.COM")
        assert options.domains_include == ("example.com",)


class TestSitekeyOption:
    def test_single_key(self):
        options = parse_options("sitekey=MFwwDQ,document")
        assert options.sitekeys == ("MFwwDQ",)
        assert options.has_sitekey

    def test_multiple_keys(self):
        options = parse_options("sitekey=AAA|BBB")
        assert options.sitekeys == ("AAA", "BBB")

    def test_sitekey_cannot_be_negated(self):
        with pytest.raises(OptionError):
            parse_options("~sitekey=AAA")

    def test_empty_sitekey_rejected(self):
        with pytest.raises(OptionError):
            parse_options("sitekey=")


class TestBehaviouralOptions:
    def test_match_case(self):
        assert parse_options("match-case").match_case

    def test_match_case_cannot_be_negated(self):
        with pytest.raises(OptionError):
            parse_options("~match-case")

    def test_collapse(self):
        assert parse_options("collapse").collapse is TriState.YES
        assert parse_options("~collapse").collapse is TriState.NO

    def test_donottrack(self):
        assert parse_options("donottrack").donottrack

    def test_unknown_option_rejected(self):
        with pytest.raises(OptionError):
            parse_options("frobnicate")

    def test_unknown_valued_option_rejected(self):
        with pytest.raises(OptionError):
            parse_options("widget=3")

    def test_empty_entry_rejected(self):
        with pytest.raises(OptionError):
            parse_options("script,,image")

    def test_whitespace_tolerated(self):
        options = parse_options(" script , image ")
        assert options.include_types == ContentType.SCRIPT | ContentType.IMAGE
