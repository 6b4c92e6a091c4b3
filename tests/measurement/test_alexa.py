"""Unit tests for the synthetic Alexa ranking and study population."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.alexa import (
    AlexaRanking,
    GOOGLE_CCTLD_COUNT,
    PARTITION_TARGETS,
    TOTAL_WHITELISTED_E2LDS,
    build_study_population,
    google_cctld_domains,
    _RanksExcept,
    whitelisted_rank_sets,
)


@pytest.fixture(scope="module")
def ranking():
    return AlexaRanking(seed=2015)


@pytest.fixture(scope="module")
def population():
    return build_study_population(seed=2015)


class TestRanking:
    def test_pinned_domains_at_their_ranks(self, ranking):
        assert ranking.domain_at(1) == "google.com"
        assert ranking.domain_at(31) == "reddit.com"
        assert ranking.domain_at(1916) == "toyota.com"

    def test_generated_names_deterministic(self, ranking):
        assert ranking.domain_at(777) == ranking.domain_at(777)

    def test_rank_of_inverts_domain_at(self, ranking):
        for rank in (1, 31, 500, 12_345, 999_999):
            assert ranking.rank_of(ranking.domain_at(rank)) == rank

    def test_rank_of_unknown_domain(self, ranking):
        assert ranking.rank_of("not-in-the-ranking.example") is None

    def test_out_of_range_rank_rejected(self, ranking):
        with pytest.raises(IndexError):
            ranking.domain_at(0)
        with pytest.raises(IndexError):
            ranking.domain_at(1_000_001)

    def test_no_duplicate_domains_in_top_slice(self, ranking):
        domains = [ranking.domain_at(r) for r in range(1, 2_001)]
        assert len(set(domains)) == len(domains)

    def test_category_stable_and_pinned_aware(self, ranking):
        assert ranking.category_of("reddit.com") == "social"
        assert ranking.category_of("somesite.com") == \
            ranking.category_of("somesite.com")

    def test_pin_conflicts_rejected(self):
        ranking = AlexaRanking(seed=1)
        ranking.pin("newsite.zz", 123_456)
        with pytest.raises(ValueError):
            ranking.pin("other.zz", 123_456)
        with pytest.raises(ValueError):
            ranking.pin("newsite.zz", 654_321)


class TestSampling:
    def test_stratum_bounds_respected(self, ranking):
        sample = ranking.sample_stratum(5_001, 50_000, 100, salt="t")
        assert all(5_001 <= rank <= 50_000 for rank, _ in sample)

    def test_stratum_distinct_and_sorted(self, ranking):
        sample = ranking.sample_stratum(5_001, 50_000, 500, salt="t")
        ranks = [rank for rank, _ in sample]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_stratum_deterministic_per_salt(self, ranking):
        a = ranking.sample_stratum(100_001, 1_000_000, 50, salt="x")
        b = ranking.sample_stratum(100_001, 1_000_000, 50, salt="x")
        c = ranking.sample_stratum(100_001, 1_000_000, 50, salt="y")
        assert a == b
        assert a != c

    def test_oversized_sample_rejected(self, ranking):
        with pytest.raises(ValueError):
            ranking.sample_stratum(1, 10, 11)

    def test_top(self, ranking):
        top = ranking.top(10)
        assert top[0] == (1, "google.com")
        assert len(top) == 10


class TestWhitelistedRanks:
    def test_partition_targets_exact(self, ranking):
        designated = whitelisted_rank_sets(ranking)
        for bound, target in PARTITION_TARGETS.items():
            assert designated.count_within(bound) == target, bound

    def test_total_is_1990(self, ranking):
        designated = whitelisted_rank_sets(ranking)
        assert designated.total == TOTAL_WHITELISTED_E2LDS

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=40),
           st.sets(st.integers(min_value=0, max_value=80)),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_lazy_candidates_sample_like_the_list(self, low, width,
                                                  excluded, seed):
        """``random.sample`` over the lazy rank sequence draws exactly
        what it draws over the materialised candidate list."""
        high = low + width
        excluded = sorted(r for r in excluded if low <= r <= high)
        lazy = _RanksExcept(low, high, excluded)
        listed = [r for r in range(low, high + 1) if r not in excluded]
        assert len(lazy) == len(listed)
        assert list(lazy) == listed
        k = seed % (len(listed) + 1)
        assert random.Random(seed).sample(lazy, k) == \
            random.Random(seed).sample(listed, k)

    def test_non_whitelisted_pinned_excluded(self, ranking):
        designated = whitelisted_rank_sets(ranking)
        from repro.web.sites import PINNED_PROFILES

        for profile in PINNED_PROFILES.values():
            if not profile.is_whitelisted_publisher:
                assert profile.rank not in designated.ranks


class TestGoogleCctlds:
    def test_count(self):
        domains = google_cctld_domains()
        assert len(domains) == GOOGLE_CCTLD_COUNT
        assert len(set(domains)) == GOOGLE_CCTLD_COUNT

    def test_distinct_e2lds(self):
        from repro.web.url import registered_domain

        domains = google_cctld_domains()
        e2lds = {registered_domain(d) for d in domains}
        assert len(e2lds) == GOOGLE_CCTLD_COUNT


class TestStudyPopulation:
    def test_publisher_count(self, population):
        assert len(population.publishers) == TOTAL_WHITELISTED_E2LDS

    def test_kind_partition(self, population):
        kinds = {p.kind for p in population.publishers}
        assert kinds == {"pinned", "google-cctld", "generic"}
        assert len(population.by_kind("google-cctld")) == \
            GOOGLE_CCTLD_COUNT

    def test_ranked_cctlds_resolve_in_ranking(self, population):
        ranked = [p for p in population.by_kind("google-cctld")
                  if p.rank is not None]
        assert ranked
        for publisher in ranked[:20]:
            assert population.ranking.domain_at(publisher.rank) == \
                publisher.e2ld

    def test_unranked_count(self, population):
        unranked = [p for p in population.publishers if p.rank is None]
        ranked = [p for p in population.publishers if p.rank is not None]
        assert len(ranked) == PARTITION_TARGETS[1_000_000]
        assert len(unranked) == TOTAL_WHITELISTED_E2LDS - len(ranked)

    def test_unique_e2lds(self, population):
        e2lds = [p.e2ld for p in population.publishers]
        assert len(set(e2lds)) == len(e2lds)
