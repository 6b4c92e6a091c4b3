"""Calibration tests: the generated history must reproduce the paper."""

from datetime import date

from repro.filters.parser import parse_filter
from repro.history.analysis import yearly_activity
from repro.history.generator import YEARLY_TARGETS


class TestShape:
    def test_989_revisions(self, history):
        assert len(history.repository) == 989

    def test_date_range(self, history):
        assert history.repository[0].when == date(2011, 10, 3)
        assert history.repository.tip.when == date(2015, 4, 28)

    def test_tip_filter_count_is_5936(self, history):
        lines = history.tip_lines()
        filters = [l for l in lines if l and not l.startswith("!")]
        assert len(filters) == 5_936


class TestTable1Exact:
    def test_every_cell(self, history):
        rows = {row.year: row
                for row in yearly_activity(history.repository)}
        for year, target in YEARLY_TARGETS.items():
            row = rows[year]
            assert row.revisions == target.revisions, year
            assert row.filters_added == target.filters_added, year
            assert row.filters_removed == target.filters_removed, year
            assert row.domains_added == target.domains_added, year
            assert row.domains_removed == target.domains_removed, year

    def test_totals(self, history):
        rows = yearly_activity(history.repository)
        assert sum(r.filters_added for r in rows) == 8_808
        assert sum(r.filters_added for r in rows) \
            - sum(r.filters_removed for r in rows) == 5_936
        assert sum(r.domains_added for r in rows) == 3_542
        assert sum(r.domains_removed for r in rows) == 410


class TestLandmarks:
    def test_google_jump_at_rev_200(self, history):
        cs = history.repository[200]
        filters = [l for l in cs.added if l and not l.startswith("!")]
        assert len(filters) >= 1_262
        assert cs.when.year == 2013

    def test_golem_filters_at_rev_67(self, history):
        cs = history.repository[67]
        assert any("golem" in line for line in cs.added)
        assert cs.when.year == 2012
        assert any("www.google.com#@##adBlock" == line
                   for line in cs.added)

    def test_golem_fix_removes_google_element_filter(self, history):
        cs = history.repository[75]
        assert "www.google.com#@##adBlock" in cs.removed

    def test_truncated_filters_at_rev_326(self, history):
        cs = history.repository[326]
        truncated = [l for l in cs.added if len(l) == 4_095]
        assert len(truncated) == 8

    def test_sedo_sitekey_added_2011(self, history):
        for cs in history.repository.log():
            if any("sitekey=" in line for line in cs.added):
                assert cs.when.year == 2011
                assert cs.when >= date(2011, 11, 25)
                break
        else:
            raise AssertionError("no sitekey filter found")

    def test_rookmedia_removed_sept_2014(self, history):
        for cs in history.repository.log():
            if any("rookmedia" in line.lower() for line in cs.removed):
                assert cs.when.year == 2014
                assert cs.when.month == 9
                break
        else:
            raise AssertionError("RookMedia never removed")


class TestTipComposition:
    def test_four_active_sitekeys(self, history):
        assert set(history.sitekeys) == {
            "Sedo", "ParkingCrew", "RookMedia", "Uniregistry", "Digimedia"}
        tip = "\n".join(history.tip_lines())
        assert history.sitekeys["RookMedia"] not in tip
        for name in ("Sedo", "ParkingCrew", "Uniregistry", "Digimedia"):
            assert history.sitekeys[name] in tip

    def test_catalog_whitelist_filters_present(self, history):
        from repro.web.adnetworks import whitelisted_networks

        tip = set(history.tip_lines())
        for net in whitelisted_networks():
            for text in net.whitelist_filters:
                assert text in tip, text

    def test_pinned_publisher_filters_present(self, history):
        from repro.web.sites import PINNED_PROFILES

        tip = set(history.tip_lines())
        for profile in PINNED_PROFILES.values():
            for text in profile.whitelist_filters:
                assert text in tip, (profile.domain, text)

    def test_tip_parses_cleanly_except_truncated(self, history):
        flist = history.tip_filter_list()
        assert len(flist.invalid_filters) == 8

    def test_publisher_directory_consistent_with_tip(self, history):
        tip = set(history.tip_lines())
        for domain, filters in history.publisher_directory.items():
            for text in filters:
                if text in tip:
                    parsed = parse_filter(text)
                    assert domain in parsed.restricted_domains


class TestDeterminism:
    def test_same_seed_same_history(self, history):
        from repro.history.generator import generate_history

        again = generate_history(seed=2015, key_bits=128)
        assert again.tip_lines() == history.tip_lines()
        assert [c.message for c in again.repository.log()] == \
            [c.message for c in history.repository.log()]


class TestDomainRecording:
    """The generator records the domains of the lines it formats and
    parses only the lines written out by hand."""

    def test_parses_only_hand_written_lines(self, monkeypatch):
        from repro.filters import parser
        from repro.history.generator import generate_history
        from repro.web.adnetworks import whitelisted_networks
        from repro.web.sites import PINNED_PROFILES

        parsed: list[str] = []
        real = parser.parse_filter

        def counting(line):
            parsed.append(line)
            return real(line)

        monkeypatch.setattr(parser, "parse_filter", counting)
        history = generate_history(seed=2015, key_bits=128)
        monkeypatch.undo()

        hand_written = set()
        for profile in PINNED_PROFILES.values():
            hand_written.update(profile.whitelist_filters)
        for network in whitelisted_networks():
            hand_written.update(network.whitelist_filters)
        hand_written.update(
            line for changeset in history.repository.log()
            for line in changeset.added
            if "sitekey=" in line or len(line) == 4095)
        # Written inline in the generator: golem.de's first two search-ads
        # lines, A46's three kayak lines and A59's three AdSense lines.
        inline = 8
        assert len(parsed) == len(set(parsed))
        assert len(parsed) <= len(hand_written) + inline

    def test_recorded_domains_equal_parsed_domains(self):
        from repro.history.generator import _HistoryBuilder, _is_filter_line

        builder = _HistoryBuilder(seed=2015, key_bits=128, population=None)
        history = builder.build()
        lines = {line for changeset in history.repository.log()
                 for line in changeset.added + changeset.removed
                 if _is_filter_line(line)}
        assert len(lines) > 6_000
        for line in sorted(lines):
            expected = getattr(parse_filter(line), "restricted_domains", ())
            assert builder._domain_cache[line] == expected, line
