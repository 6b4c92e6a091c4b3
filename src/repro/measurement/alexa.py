"""Synthetic Alexa ranking — the popularity substrate.

The paper draws every domain sample from the Alexa rankings of April
2015: the top 5,000 for the main survey, three 1,000-domain strata
(5K–50K, 50K–100K, 100K–1M) for the popularity comparison (Figure 8),
and the top-1M partitions of Table 2.

We synthesise a deterministic 1M-entry ranking:

* the domains the paper names are *pinned* at fixed plausible ranks
  (google.com at 1, reddit.com at 31, toyota.com at 1916, ...);
* every other rank gets a generated domain whose name embeds the rank
  (making rank lookup invertible) and a category drawn from a fixed
  distribution;
* :func:`whitelisted_rank_sets` designates which ranks belong to
  explicitly whitelisted publishers so that the Table 2 partition counts
  come out at the paper's values (33 of the top 100, 112 of the top
  500, 167 of the top 1,000, 316 of the top 5,000, 1,286 of the top 1M,
  1,990 total including 704 outside the ranking).
"""

from __future__ import annotations

import bisect
import hashlib
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass

from repro.web.sites import PINNED_PROFILES

__all__ = [
    "AlexaRanking",
    "GOOGLE_CCTLD_COUNT",
    "PARTITION_TARGETS",
    "StudyPopulation",
    "TOTAL_WHITELISTED_E2LDS",
    "WhitelistedPublisher",
    "WhitelistedRanks",
    "build_study_population",
    "google_cctld_domains",
    "whitelisted_rank_sets",
]

#: Cumulative Table 2 targets: partition upper bound -> whitelisted e2LDs.
PARTITION_TARGETS: dict[int, int] = {
    100: 33,
    500: 112,
    1_000: 167,
    5_000: 316,
    1_000_000: 1_286,
}

#: Table 2's "All" row: 1,990 effective second-level domains.
TOTAL_WHITELISTED_E2LDS = 1_990

_WORDS = (
    "news", "daily", "web", "tech", "shop", "store", "game", "play",
    "media", "live", "stream", "cloud", "data", "home", "world", "city",
    "sport", "auto", "travel", "food", "health", "style", "photo",
    "video", "music", "movie", "book", "art", "blog", "forum", "wiki",
    "deal", "coupon", "bank", "trade", "job", "mail", "chat", "social",
    "learn", "kids", "pet", "garden", "craft", "race", "star", "geek",
)
_TLDS = ("com", "com", "com", "com", "net", "org", "info", "co.uk",
         "de", "ru", "com.br", "fr", "it", "es", "jp", "in")

_CATEGORIES = (
    "news", "shopping", "social", "video", "games", "reference",
    "viral", "search", "travel", "isp", "humor", "general", "tech",
    "sports", "finance", "adult", "classifieds",
)
_CATEGORY_WEIGHTS = (
    12, 14, 6, 5, 7, 6, 3, 2, 4, 2, 2, 18, 6, 5, 4, 3, 1,
)

_GENERATED_RE = re.compile(r"^[a-z]+-r(\d+)\.[a-z.]+$")


class AlexaRanking:
    """The deterministic synthetic top-1M ranking."""

    def __init__(self, seed: int = 2015, size: int = 1_000_000) -> None:
        self.seed = seed
        self.size = size
        self._pinned_by_rank = {
            profile.rank: profile.domain
            for profile in PINNED_PROFILES.values()
            if profile.rank <= size
        }
        self._pinned_by_domain = {
            domain: rank for rank, domain in self._pinned_by_rank.items()
        }

    def pin(self, domain: str, rank: int) -> None:
        """Pin ``domain`` at ``rank`` (must be free, domain unseen).

        Used by the study population to place Google ccTLD properties and
        other whitelist identities at designated ranks.
        """
        if rank in self._pinned_by_rank:
            raise ValueError(f"rank {rank} already pinned to "
                             f"{self._pinned_by_rank[rank]!r}")
        if domain in self._pinned_by_domain:
            raise ValueError(f"domain {domain!r} already pinned")
        self._pinned_by_rank[rank] = domain
        self._pinned_by_domain[domain] = rank

    # -- lookup ------------------------------------------------------------

    def domain_at(self, rank: int) -> str:
        """The domain ranked ``rank`` (1-based)."""
        if not 1 <= rank <= self.size:
            raise IndexError(f"rank {rank} outside 1..{self.size}")
        pinned = self._pinned_by_rank.get(rank)
        if pinned is not None:
            return pinned
        rng = self._rng(f"name:{rank}")
        w1 = rng.choice(_WORDS)
        w2 = rng.choice(_WORDS)
        tld = rng.choice(_TLDS)
        return f"{w1}{w2}-r{rank}.{tld}"

    def rank_of(self, domain: str) -> int | None:
        """Inverse of :meth:`domain_at`; None for unranked domains."""
        pinned = self._pinned_by_domain.get(domain)
        if pinned is not None:
            return pinned
        match = _GENERATED_RE.match(domain)
        if match:
            rank = int(match.group(1))
            if 1 <= rank <= self.size and self.domain_at(rank) == domain:
                return rank
        return None

    def category_of(self, domain: str) -> str:
        profile = PINNED_PROFILES.get(domain)
        if profile is not None:
            return profile.category
        rng = self._rng(f"cat:{domain}")
        return rng.choices(_CATEGORIES, weights=_CATEGORY_WEIGHTS)[0]

    # -- sampling -----------------------------------------------------------

    def top(self, n: int) -> list[tuple[int, str]]:
        """The top ``n`` (rank, domain) pairs."""
        return [(rank, self.domain_at(rank)) for rank in range(1, n + 1)]

    def sample_stratum(self, low: int, high: int, n: int,
                       *, salt: str = "") -> list[tuple[int, str]]:
        """``n`` distinct random ranks in [low, high], rank-sorted.

        Deterministic given the ranking seed and ``salt`` (the survey
        uses one salt per sample group).
        """
        if high - low + 1 < n:
            raise ValueError("stratum smaller than requested sample")
        rng = self._rng(f"stratum:{low}:{high}:{salt}")
        ranks = rng.sample(range(low, high + 1), n)
        ranks.sort()
        return [(rank, self.domain_at(rank)) for rank in ranks]

    def _rng(self, salt: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{salt}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class WhitelistedRanks:
    """The designated whitelisted-publisher ranks and unranked extras."""

    ranks: tuple[int, ...]            # sorted, within the ranking
    unranked_count: int               # whitelisted e2LDs outside the top 1M

    def count_within(self, bound: int) -> int:
        return sum(1 for r in self.ranks if r <= bound)

    @property
    def total(self) -> int:
        return len(self.ranks) + self.unranked_count


def whitelisted_rank_sets(ranking: AlexaRanking) -> WhitelistedRanks:
    """Choose which ranks host explicitly whitelisted publishers.

    Pinned publishers with whitelist filters occupy their own ranks;
    the rest are drawn deterministically so each Table 2 partition hits
    its target exactly.
    """
    pinned_whitelisted = sorted(
        profile.rank
        for profile in PINNED_PROFILES.values()
        if profile.is_whitelisted_publisher and profile.rank <= ranking.size
    )
    pinned_excluded = {
        profile.rank
        for profile in PINNED_PROFILES.values()
        if not profile.is_whitelisted_publisher
    }

    chosen: set[int] = set(pinned_whitelisted)
    boundaries = [(1, 100), (101, 500), (501, 1_000), (1_001, 5_000),
                  (5_001, 1_000_000)]
    cumulative_targets = list(PARTITION_TARGETS.values())
    rng = ranking._rng("whitelist-ranks")

    previous_cumulative = 0
    for (low, high), cumulative in zip(boundaries, cumulative_targets):
        needed = cumulative - previous_cumulative
        have = sum(1 for r in chosen if low <= r <= high)
        missing = needed - have
        if missing < 0:
            raise ValueError(
                f"pinned publishers already exceed the {high} partition "
                f"target ({have} > {needed})")
        excluded = sorted(r for r in chosen | pinned_excluded
                          if low <= r <= high)
        chosen.update(rng.sample(_RanksExcept(low, high, excluded),
                                 missing))
        previous_cumulative = cumulative

    unranked = TOTAL_WHITELISTED_E2LDS - len(chosen)
    return WhitelistedRanks(ranks=tuple(sorted(chosen)),
                            unranked_count=unranked)


class _RanksExcept(Sequence):
    """The ranks ``low..high`` minus the sorted ``excluded``, ascending.

    Indexes like the list it stands for without building it (the last
    partition spans 995,000 ranks): ``random.sample`` only takes the
    length and indexes, so a draw from it equals a draw from the list.
    """

    def __init__(self, low: int, high: int, excluded: list[int]) -> None:
        self._low = low
        self._len = high - low + 1 - len(excluded)
        #: How many allowed ranks precede each excluded one.
        self._gaps = [rank - low - i for i, rank in enumerate(excluded)]

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._len:
            raise IndexError(index)
        return self._low + index + bisect.bisect_right(self._gaps, index)


# ---------------------------------------------------------------------------
# Study population: ranking + whitelisted identities, fully resolved
# ---------------------------------------------------------------------------

#: How many of the 919 Google ccTLD e2LDs sit inside the top 1M.
GOOGLE_CCTLD_COUNT = 919
_GOOGLE_RANKED = 300


def google_cctld_domains(count: int = GOOGLE_CCTLD_COUNT) -> list[str]:
    """Deterministic list of Google country properties (google.ab,
    google.co.cd, ...) — stand-ins for the 919 ccTLD variants of
    Section 4.2.1."""
    import itertools
    import string

    domains: list[str] = []
    letters = string.ascii_lowercase
    for a, b in itertools.product(letters, letters):
        domains.append(f"google.{a}{b}")
        if len(domains) >= count:
            return domains
    for a, b in itertools.product(letters, letters):
        domains.append(f"google.co.{a}{b}")
        if len(domains) >= count:
            return domains
    raise ValueError("cannot generate that many ccTLD variants")


@dataclass(frozen=True)
class WhitelistedPublisher:
    """One whitelisted e2LD in the study population."""

    e2ld: str
    rank: int | None          # None = outside the top 1M
    kind: str                 # "pinned" | "google-cctld" | "generic"


@dataclass(frozen=True)
class StudyPopulation:
    """The resolved study universe: ranking plus whitelist identities."""

    ranking: AlexaRanking
    publishers: tuple[WhitelistedPublisher, ...]

    def by_kind(self, kind: str) -> list[WhitelistedPublisher]:
        return [p for p in self.publishers if p.kind == kind]

    @property
    def generic_pool(self) -> list[WhitelistedPublisher]:
        return self.by_kind("generic")


def build_study_population(seed: int = 2015) -> StudyPopulation:
    """Build the ranking and resolve every whitelisted e2LD's identity.

    Pinned publisher profiles keep their ranks; 300 of the designated
    5001–1M whitelist ranks become Google ccTLD properties (the rest of
    the 919 sit outside the top 1M); the remaining designated ranks are
    generic publishers, topped up with off-ranking generics so the total
    is exactly 1,990 e2LDs.
    """
    from repro.web.sites import PINNED_PROFILES as _PINNED

    ranking = AlexaRanking(seed=seed)
    designated = whitelisted_rank_sets(ranking)

    pinned_whitelisted_ranks = {
        profile.rank: profile.domain
        for profile in _PINNED.values()
        if profile.is_whitelisted_publisher and profile.rank <= ranking.size
    }

    cctlds = google_cctld_domains()
    deep_ranks = [r for r in designated.ranks
                  if r > 5_000 and r not in pinned_whitelisted_ranks]
    rng = ranking._rng("cctld-placement")
    cctld_ranks = sorted(rng.sample(deep_ranks, _GOOGLE_RANKED))
    for domain, rank in zip(cctlds, cctld_ranks):
        ranking.pin(domain, rank)
    ranked_cctlds = dict(zip(cctlds, cctld_ranks))
    unranked_cctlds = cctlds[_GOOGLE_RANKED:]

    publishers: list[WhitelistedPublisher] = []
    cctld_rank_set = set(cctld_ranks)
    for rank in designated.ranks:
        if rank in pinned_whitelisted_ranks:
            publishers.append(WhitelistedPublisher(
                e2ld=pinned_whitelisted_ranks[rank], rank=rank,
                kind="pinned"))
        elif rank in cctld_rank_set:
            domain = ranking.domain_at(rank)
            publishers.append(WhitelistedPublisher(
                e2ld=domain, rank=rank, kind="google-cctld"))
        else:
            publishers.append(WhitelistedPublisher(
                e2ld=ranking.domain_at(rank), rank=rank, kind="generic"))

    for domain in unranked_cctlds:
        publishers.append(WhitelistedPublisher(
            e2ld=domain, rank=None, kind="google-cctld"))

    generic_offlist = designated.unranked_count - len(unranked_cctlds)
    if generic_offlist < 0:
        raise ValueError("unranked ccTLDs exceed the unranked budget")
    for i in range(generic_offlist):
        publishers.append(WhitelistedPublisher(
            e2ld=f"smallpub{i}-offlist.com", rank=None, kind="generic"))

    assert len(publishers) == TOTAL_WHITELISTED_E2LDS
    return StudyPopulation(ranking=ranking, publishers=tuple(publishers))
