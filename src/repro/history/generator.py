"""Synthesise the full Acceptable Ads whitelist history.

The paper mines 989 Mercurial revisions (Oct 2011 – Apr 28 2015) of the
``exceptionrules`` list.  This module regenerates an equivalent history,
calibrated so every downstream analysis reproduces the paper:

* Table 1's yearly revision / filter / domain activity — **exactly**;
* Figure 3's growth curve, including the Rev-200 Google jump (+1,262
  filters) and the late-2013 ask.com/about.com jump;
* the Section 4.2 scope composition at the tip (≈89% restricted, 156
  unrestricted filters, 25 sitekey filters over 4 active keys);
* Section 7's A-filter groups (61 added, 5 removed, A7 re-added as A28,
  A59's unrestricted AdSense filter, the "Updated whitelists." commit
  message fingerprint);
* Section 8's hygiene defects (35 duplicate lines, 8 filters truncated
  at 4,095 characters in Rev 326).

Where the paper's own numbers are internally inconsistent (Table 1's
domain arithmetic nets 3,132 FQDs while Section 4.2.1 reports 3,545),
we hit Table 1 exactly and land the final domain count in between; the
deviation is documented in EXPERIMENTS.md.

The output bundles the repository with the resolved study population
and a *publisher directory* (domain -> restricted filters), which the
site survey uses to wire whitelisted publishers' pages to their filters.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from datetime import date, timedelta

from repro.history.analysis import domains_of
from repro.history.repository import Repository
from repro.measurement.alexa import StudyPopulation, build_study_population
from repro.sitekey.der import public_key_to_base64
from repro.sitekey.parking import PARKING_SERVICES, ParkingService
from repro.web.adnetworks import whitelisted_networks
from repro.web.sites import PINNED_PROFILES

__all__ = [
    "YearTargets",
    "YEARLY_TARGETS",
    "WhitelistHistory",
    "generate_history",
    "FORUM_URL",
]

FORUM_URL = "https://adblockplus.org/forum/viewtopic.php?f=12&t={topic}"

#: The Rev-326 truncation limit (Section 8).
_TRUNCATION_LENGTH = 4095

#: A modified filter's marker segment at the end of its pattern.
_MOD_MARKER_RE = re.compile(r"/m\d+/$")


@dataclass(frozen=True, slots=True)
class YearTargets:
    """Table 1 calibration targets for one year."""

    revisions: int
    filters_added: int
    filters_removed: int
    domains_added: int
    domains_removed: int


#: Canonicalised Table 1 (the paper's printed totals are internally
#: inconsistent by 17 filter removals; we distribute the slack over
#: 2013/2014 so the terminal list lands at exactly 5,936 filters).
YEARLY_TARGETS: dict[int, YearTargets] = {
    2011: YearTargets(26, 25, 0, 5, 0),
    2012: YearTargets(47, 225, 30, 59, 5),
    2013: YearTargets(311, 5152, 1565, 2248, 73),
    2014: YearTargets(386, 2179, 782, 859, 125),
    2015: YearTargets(219, 1227, 495, 371, 207),
}

_YEAR_SPANS = {
    2011: (date(2011, 10, 3), date(2011, 12, 30)),
    2012: (date(2012, 1, 4), date(2012, 12, 29)),
    2013: (date(2013, 1, 3), date(2013, 12, 30)),
    2014: (date(2014, 1, 2), date(2014, 12, 30)),
    2015: (date(2015, 1, 2), date(2015, 4, 28)),
}


@dataclass
class WhitelistHistory:
    """The generated history plus everything keyed off it."""

    repository: Repository
    population: StudyPopulation
    #: FQD -> the restricted whitelist filters naming it (tip state).
    publisher_directory: dict[str, tuple[str, ...]]
    #: Parking service name -> base64 sitekey in the whitelist.
    sitekeys: dict[str, str]
    seed: int
    key_bits: int

    def tip_lines(self) -> list[str]:
        return self.repository.checkout(len(self.repository) - 1)

    def tip_filter_list(self):
        from repro.filters.filterlist import parse_filter_list

        return parse_filter_list("\n".join(self.tip_lines()),
                                 name="exceptionrules")


# ---------------------------------------------------------------------------
# Internal planning structures
# ---------------------------------------------------------------------------

@dataclass
class _RevPlan:
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    message: str | None = None
    mods: int = 0
    extras: int = 0


class _Plan:
    """Mutable per-revision schedule with uniqueness bookkeeping."""

    def __init__(self, total_revs: int) -> None:
        self.revs = [_RevPlan() for _ in range(total_revs)]
        self._topic = 1000

    def next_topic(self) -> int:
        self._topic += 1
        return self._topic

    def add(self, rev: int, lines: list[str], message: str,
            comment: str | None = None) -> None:
        plan = self.revs[rev]
        if comment is not None:
            plan.added.append(comment)
        plan.added.extend(lines)
        if plan.message is None:
            plan.message = message

    def remove(self, rev: int, lines: list[str], message: str) -> None:
        plan = self.revs[rev]
        plan.removed.extend(lines)
        if plan.message is None:
            plan.message = message


def _is_filter_line(line: str) -> bool:
    return bool(line) and not line.startswith("!")


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

def generate_history(seed: int = 2015, key_bits: int = 512,
                     population: StudyPopulation | None = None
                     ) -> WhitelistHistory:
    """Generate the full 989-revision whitelist history.

    ``key_bits`` sets the parking sitekey strength (512 reproduces the
    paper; tests use smaller keys for speed).  The result is fully
    deterministic in ``(seed, key_bits)``, so it is never journaled: a
    resumed run regenerates it, which is faster than replaying it.
    """
    builder = _HistoryBuilder(seed=seed, key_bits=key_bits,
                              population=population)
    return builder.build()


class _HistoryBuilder:
    def __init__(self, seed: int, key_bits: int,
                 population: StudyPopulation | None) -> None:
        self.seed = seed
        self.key_bits = key_bits
        self.rng = random.Random(seed ^ 0xACCE55)
        self.population = population or build_study_population(seed)

        self.calendar: list[date] = []
        self.year_of_rev: list[int] = []
        self.plan: _Plan | None = None

        # Generic-publisher pool (e2LDs) and allocation cursors.
        self.pool = [p.e2ld for p in self.population.generic_pool]
        self.rng.shuffle(self.pool)
        self._pool_root_cursor = 0
        self._pool_www_cursor = 0
        self._a_group_cursor = len(self.pool) - 1  # A-groups draw from the end

        self.publisher_directory: dict[str, list[str]] = {}
        self.sitekeys: dict[str, str] = {}
        #: line -> the domains it is restricted to.  The factories record
        #: the domains of every line they format; only hand-written lines
        #: (pinned, catalog, sitekey, truncated) are parsed, once each.
        self._domain_cache: dict[str, tuple[str, ...]] = {}
        self._modifiable: list[str] = []
        self._mod_counter = 0
        self._extra_counter = 0
        self._unrestricted_fillers = self._make_unrestricted_fillers()
        self._duplicates_budget = 35
        self._churn_texts: set[str] = set()
        self._dup_texts: set[str] = set()
        self._sitekey_lines: dict[str, list[str]] = {}
        #: Revisions that must stay "pure" (landmark groups): balance
        #: fills stay off them so positional group mining is exact.
        self._reserved_revs: set[int] = set()

    # -- fundamental helpers --------------------------------------------

    def _build_calendar(self) -> None:
        for year, targets in YEARLY_TARGETS.items():
            start, end = _YEAR_SPANS[year]
            span = (end - start).days
            for i in range(targets.revisions):
                offset = round(i * span / max(1, targets.revisions - 1))
                self.calendar.append(start + timedelta(days=offset))
                self.year_of_rev.append(year)

    def _year_revs(self, year: int) -> range:
        first = self.year_of_rev.index(year)
        last = len(self.year_of_rev) - 1 - self.year_of_rev[::-1].index(year)
        return range(first, last + 1)

    def _rev_for_date(self, when: date) -> int:
        for rev, rev_date in enumerate(self.calendar):
            if rev_date >= when:
                return rev
        return len(self.calendar) - 1

    def _record_publisher(self, filters: list[str]) -> None:
        for text in filters:
            for domain in domains_of(text, self._domain_cache):
                self.publisher_directory.setdefault(domain, [])
                if text not in self.publisher_directory[domain]:
                    self.publisher_directory[domain].append(text)

    # -- content factories ------------------------------------------------

    def _formatted(self, text: str, *domains: str) -> str:
        """Record the domains a line formatted here is restricted to."""
        self._domain_cache[text] = domains
        return text

    def _a_group_domain(self) -> str:
        if self._a_group_cursor <= self._pool_root_cursor:
            raise RuntimeError("generic pool exhausted (A-groups)")
        e2ld = self.pool[self._a_group_cursor]
        self._a_group_cursor -= 1
        return e2ld

    def _generic_fqd(self) -> str:
        """Next generic publisher FQD: fresh roots first, then www
        variants of already-used e2LDs."""
        if self._pool_root_cursor < self._a_group_cursor:
            e2ld = self.pool[self._pool_root_cursor]
            self._pool_root_cursor += 1
            return e2ld
        if self._pool_www_cursor >= len(self.pool):
            raise RuntimeError("generic pool exhausted (www variants)")
        e2ld = self.pool[self._pool_www_cursor]
        self._pool_www_cursor += 1
        return f"www.{e2ld}"

    def _base_filter(self, fqd: str) -> str:
        from repro.web.url import registered_domain

        e2ld = registered_domain(fqd)
        return self._formatted(f"@@||adserv.genericnet.com/slot/{e2ld}/"
                               f"$script,domain={fqd}", fqd)

    def _extra_filter(self, fqd: str) -> str:
        self._extra_counter += 1
        return self._formatted(f"@@||trackpix{self._extra_counter}.net/"
                               f"px.gif$image,domain={fqd}", fqd)

    def _make_unrestricted_fillers(self) -> list[str]:
        """The long tail of unrestricted conversion-tracking filters.

        Catalog networks contribute their real filters; synthetic
        trackers fill the count to the paper's 156 unrestricted filters.
        """
        catalog: list[str] = []
        for net in whitelisted_networks():
            catalog.extend(net.whitelist_filters)
        # A59 contributes two further unrestricted filters beyond its
        # catalog AdSense entry, so the synthetic tail accounts for them.
        synthetic_needed = 156 - len(catalog) - 2
        synthetic = [
            self._formatted(f"@@||convtrack{i:03d}-metrics.com^$third-party")
            for i in range(synthetic_needed)
        ]
        return catalog + synthetic

    # -- group schedules ----------------------------------------------------

    def _schedule_structure(self) -> None:
        assert self.plan is not None
        plan = self.plan
        fillers = list(self._unrestricted_fillers)

        # Google-property exceptions scheduled with the Rev-200 jump.
        google_markers = ("stats.g.doubleclick", "gstatic",
                          "googleadservices.com^", "googlesyndication",
                          "g.doubleclick.net/pagead",
                          "google-analytics.com/conversion")
        self._google_catalog_filters = [
            f for f in fillers if any(m in f for m in google_markers)]
        for text in self._google_catalog_filters:
            fillers.remove(text)

        def take_fillers(names: list[str]) -> list[str]:
            taken = [f for f in fillers if any(n in f for n in names)]
            for f in taken:
                fillers.remove(f)
            return taken

        # ---- 2011: initial list, Sedo sitekey, early trackers --------
        reddit = list(PINNED_PROFILES["reddit.com"].whitelist_filters)
        initial_pool = [self._base_filter(self._generic_fqd())
                        for _ in range(4)]
        early = take_fillers(["convtrack000", "convtrack001"])
        plan.add(0, reddit + initial_pool + early,
                 "Initial acceptable ads whitelist "
                 + FORUM_URL.format(topic=plan.next_topic()),
                 comment="! Acceptable ads exceptions")
        self._record_publisher(reddit + initial_pool)

        sedo = next(s for s in PARKING_SERVICES if s.name == "Sedo")
        self._schedule_sitekey_group(sedo, count=7)

        # The rest of 2011's additions are small conversion trackers —
        # Google's heavyweight exceptions only arrive with Rev 200.
        more_2011 = take_fillers(
            [f"convtrack{i:03d}" for i in range(2, 11)])[:9]
        revs_2011 = list(self._year_revs(2011))
        for i, text in enumerate(more_2011):
            rev = revs_2011[2 + i * 2]
            plan.add(rev, [text],
                     "Allow conversion tracking "
                     + FORUM_URL.format(topic=plan.next_topic()))

        # ---- 2012: golem's odd filters, influads, generic growth -----
        golem_v1 = [
            "@@||google.com/ads/search/module/ads/*/search.js"
            "$domain=suche.golem.de|www.google.com",
            "www.google.com#@##adBlock",
        ]
        plan.add(67, golem_v1,
                 "Search ads for golem.de "
                 + FORUM_URL.format(topic=plan.next_topic()),
                 comment="! golem.de search ads")
        influads = take_fillers(["influads"])
        plan.add(40, influads,
                 "Whitelist Influads " + FORUM_URL.format(topic=plan.next_topic()),
                 comment="! Influads network")

        # ---- 2013: golem fix, Google jump, parking, A-groups, ask/about
        golem_v2 = [PINNED_PROFILES["golem.de"].whitelist_filters[0]]
        plan.remove(75, golem_v1, "Cleaned up golem.de filters")
        plan.add(75, golem_v2, "Cleaned up golem.de filters")
        self._record_publisher(golem_v2)

        self._schedule_google_jump(rev=200)

        for name, when, count in (("ParkingCrew", date(2013, 5, 27), 6),
                                  ("RookMedia", date(2013, 7, 31), 3),
                                  ("Uniregistry", date(2013, 9, 25), 6),
                                  ("Digimedia", date(2014, 7, 2), 6)):
            service = next(s for s in PARKING_SERVICES if s.name == name)
            self._schedule_sitekey_group(service, count=count)

        pagefair = take_fillers(["pagefair", "admarketplace"])
        plan.add(260, pagefair,
                 "Whitelist PageFair "
                 + FORUM_URL.format(topic=plan.next_topic()),
                 comment="! PageFair acceptable ads")

        self._schedule_a_groups()
        self._schedule_about_block(rev=350)
        self._schedule_truncated(rev=326)

        pinned_2013 = ["amazon.com", "bing.com", "yahoo.com", "imgur.com",
                       "ebay.com", "cracked.com", "kayak.com",
                       "utopia-game.com"]
        revs_2013 = list(self._year_revs(2013))
        for i, domain in enumerate(pinned_2013):
            filters = list(PINNED_PROFILES[domain].whitelist_filters)
            rev = revs_2013[30 + i * 7]
            plan.add(rev, filters,
                     f"Whitelist {domain} "
                     + FORUM_URL.format(topic=plan.next_topic()),
                     comment=f"! {domain}")
            self._record_publisher(filters)

        # ---- 2014: Digimedia (scheduled above), RookMedia removal,
        # pinned late publishers --------------------------------------
        rook_lines = self._sitekey_lines.get("RookMedia", [])
        plan.remove(self._rev_for_date(date(2014, 9, 16)),
                    rook_lines + ["! Text ads on RookMedia parking domains"],
                    "Removed Rook Media")

        pinned_2014 = ["viralnova.com", "isitup.org"]
        revs_2014 = list(self._year_revs(2014))
        for i, domain in enumerate(pinned_2014):
            filters = list(PINNED_PROFILES[domain].whitelist_filters)
            plan.add(revs_2014[20 + i * 9], filters,
                     f"Whitelist {domain} "
                     + FORUM_URL.format(topic=plan.next_topic()),
                     comment=f"! {domain}")
            self._record_publisher(filters)

        # ---- remaining unrestricted fillers, spread over 2012-2015 ----
        # (A59's unrestricted AdSense filter is scheduled by
        # _schedule_a_groups and excluded from the generic spread.)
        fillers = [f for f in fillers if "adsense/search/ads.js" not in f]
        spread_years = [2012] * 15 + [2013] * 65 + [2014] * 45 + [2015] * 25
        if len(spread_years) < len(fillers):
            raise RuntimeError("unrestricted filler spread too short")
        rng = self.rng
        for text, year in zip(fillers, spread_years):
            revs = self._year_revs(year)
            rev = rng.randrange(revs.start + 5, revs.stop - 2)
            while rev in self._reserved_revs:
                rev += 1
            plan.add(rev, [text],
                     "Allow conversion tracking "
                     + FORUM_URL.format(topic=plan.next_topic()))

    # sitekey groups -------------------------------------------------------

    def _schedule_sitekey_group(self, service: ParkingService,
                                count: int) -> None:
        assert self.plan is not None
        key_b64 = public_key_to_base64(
            service.keypair(bits=self.key_bits).public)
        self.sitekeys[service.name] = key_b64
        lines = [f"@@$sitekey={key_b64},document"]
        if count >= 2:
            lines.append(f"@@$sitekey={key_b64},elemhide")
        for i in range(count - len(lines)):
            lines.append(
                f"@@||parkfeed{i}.{service.name.lower()}-ads.com^"
                f"$third-party,sitekey={key_b64}")
        rev = self._rev_for_date(service.whitelisted)
        self.plan.add(
            rev, lines,
            f"Text ads on {service.name} parking domains "
            + FORUM_URL.format(topic=self.plan.next_topic()),
            comment=f"! Text ads on {service.name} parking domains")
        self._sitekey_lines[service.name] = lines

    # Google / about blocks --------------------------------------------------

    def _schedule_google_jump(self, rev: int) -> None:
        assert self.plan is not None
        cctlds = [p.e2ld for p in self.population.publishers
                  if p.kind == "google-cctld"]
        lines: list[str] = []
        for domain in cctlds:
            lines.append(self._formatted(
                f"@@||{domain}/ads/search/module/ads/*/search.js"
                f"$script,domain={domain}", domain))
        google_filters = list(PINNED_PROFILES["google.com"].whitelist_filters)
        lines.extend(google_filters)
        # Google's unrestricted network exceptions — the Table 4 head —
        # were part of Google's official introduction, not the 2011
        # seed list.
        lines.extend(self._google_catalog_filters)
        pad_target = 1262 - len(lines)
        for i in range(pad_target):
            domain = cctlds[i % len(cctlds)]
            lines.append(self._formatted(
                f"@@||{domain}/afs/ads/v{i // len(cctlds)}/"
                f"$script,domain=www.google.com|{domain}",
                "www.google.com", domain))
        assert len(lines) == 1262
        self._reserved_revs.add(rev)
        self.plan.add(rev, lines,
                      "Google search ads "
                      + FORUM_URL.format(topic=self.plan.next_topic()),
                      comment="! Google search advertisements")
        self._record_publisher(lines)

    def _schedule_about_block(self, rev: int) -> None:
        assert self.plan is not None
        subdomains = [f"{_ABOUT_TOPICS[i % len(_ABOUT_TOPICS)]}"
                      f"{i // len(_ABOUT_TOPICS) or ''}.about.com"
                      for i in range(1044)]
        lines = list(PINNED_PROFILES["about.com"].whitelist_filters)
        for i in range(0, len(subdomains), 2):
            pair = subdomains[i:i + 2]
            lines.append(self._formatted(
                "@@||google.com/adsense/search/ads.js$domain="
                + "|".join(pair), *pair))
        self.plan.add(rev, lines,
                      "AdSense for search on about.com properties "
                      + FORUM_URL.format(topic=self.plan.next_topic()),
                      comment="! about.com search ads")
        self._record_publisher(lines)

    def _schedule_truncated(self, rev: int) -> None:
        """Rev 326's eight filters erroneously truncated at 4,095 chars.

        Each is a long AdSense domain-list exception cut mid-list; the
        dangling ``|`` leaves an empty domain entry, so the filters are
        genuinely malformed (they parse as invalid), exactly matching
        the Section 8 finding.
        """
        assert self.plan is not None
        lines = []
        for i in range(8):
            domains = "|".join(
                f"sub{j}.bulkpublisher{i}.com" for j in range(260))
            text = f"@@||google.com/adsense/search/ads.js$domain={domains}"
            truncated = text[:_TRUNCATION_LENGTH - 1] + "|"
            assert len(truncated) == _TRUNCATION_LENGTH
            lines.append(truncated)
        self._reserved_revs.add(rev)
        self.plan.add(rev, lines, "Updated whitelists.")

    # A-filter groups --------------------------------------------------------

    def _schedule_a_groups(self) -> None:
        assert self.plan is not None
        plan = self.plan
        rng = self.rng

        group_revs: dict[int, int] = {}
        # 2013: A1–A38 over revs 287..383; 2014: A39–A54; 2015: A55–A61.
        revs_2013 = list(range(287, 384))
        for n in range(1, 39):
            group_revs[n] = revs_2013[(n - 1) * len(revs_2013) // 38]
        revs_2014 = list(self._year_revs(2014))
        for i, n in enumerate(range(39, 55)):
            group_revs[n] = revs_2014[40 + i * 18]
        revs_2015 = list(self._year_revs(2015))
        for i, n in enumerate(range(55, 62)):
            group_revs[n] = revs_2015[10 + i * 25]
        group_revs[28] = 625   # A28 = re-added A7
        group_revs[59] = 789   # A59: the unrestricted AdSense exception
        group_revs[61] = 955

        special = {
            6: list(PINNED_PROFILES["ask.com"].whitelist_filters),
            10: list(PINNED_PROFILES["walmart.com"].whitelist_filters),
            29: list(PINNED_PROFILES["comcast.net"].whitelist_filters),
            46: ["@@||kayak.com.au^$elemhide",
                 "@@||kayak.com.br^$elemhide",
                 "@@||checkfelix.com^$elemhide"],
            50: list(PINNED_PROFILES["twcc.com"].whitelist_filters),
            # A59: AdSense for search on nearly *all* domains — the
            # filter excludes (negates) 43 domains, restricting nothing.
            59: ["@@||google.com/adsense/search/ads.js$script",
                 "@@||google.com/afs/ads?client=*$subdocument",
                 "@@||googleadservices.com/pagead/aclk?$subdocument,"
                 "domain=" + "|".join(
                     f"~not{i}.excluded-from-a59.com" for i in range(43))],
        }

        a7_content: list[str] = []
        for n in sorted(group_revs):
            rev = group_revs[n]
            if n == 28:
                filters = list(a7_content)
            elif n in special:
                filters = special[n]
            else:
                d1 = self._a_group_domain()
                d2 = self._a_group_domain()
                filters = [
                    self._formatted(f"@@||{d1}^$elemhide", d1),
                    self._formatted(f"@@||google.com/adsense/search/ads.js"
                                    f"$domain={d1}|{d2}", d1, d2),
                    self._formatted(f"@@||{d2}^$elemhide", d2),
                ]
            message = ("Added new whitelists." if rev == 304
                       else "Updated whitelists.")
            self._reserved_revs.add(rev)
            plan.add(rev, filters, message, comment=f"!A{n}")
            self._record_publisher(filters)
            if n == 7:
                a7_content = filters

        # Five groups later removed: A7 (re-added as A28), A3, A12 in
        # 2014; A19, A33 in 2015.
        removals = {7: 600, 3: 500, 12: 700, 19: 800, 33: 850}
        for n, rev in removals.items():
            self._reserved_revs.add(rev)
            target_rev = group_revs[n]
            group_lines = [f"!A{n}"]
            # Reconstruct the group's filters from the plan itself.
            rev_plan = plan.revs[target_rev]
            marker = rev_plan.added.index(f"!A{n}")
            for line in rev_plan.added[marker + 1:]:
                if line.startswith("!"):
                    break
                group_lines.append(line)
            plan.remove(rev, group_lines, "Updated whitelists.")
            if n in (7, 3, 12, 19, 33) and n != 7:
                # Their publishers leave the directory for good.
                for line in group_lines[1:]:
                    self._drop_from_directory(line)

    def _drop_from_directory(self, filter_text: str) -> None:
        for domain, filters in list(self.publisher_directory.items()):
            if filter_text in filters:
                filters.remove(filter_text)
                if not filters:
                    del self.publisher_directory[domain]

    # -- balancing: mods, extras, churn ------------------------------------

    def _structural_counts(self, year: int) -> tuple[int, int]:
        assert self.plan is not None
        added = removed = 0
        for rev in self._year_revs(year):
            plan = self.plan.revs[rev]
            added += sum(1 for l in plan.added if _is_filter_line(l))
            removed += sum(1 for l in plan.removed if _is_filter_line(l))
        return added, removed

    def _first_appearances(self) -> dict[str, int]:
        """Each FQD's first revision in the structural plan."""
        assert self.plan is not None
        first_rev: dict[str, int] = {}
        for rev, plan in enumerate(self.plan.revs):
            for line in plan.added:
                if _is_filter_line(line):
                    for domain in domains_of(line, self._domain_cache):
                        first_rev.setdefault(domain, rev)
        return first_rev

    def _schedule_balance(self) -> None:
        """Add churn (domain removals/re-adds), mods, and extra adds so
        every Table 1 cell is hit exactly."""
        assert self.plan is not None
        plan = self.plan

        # Churn: (pool removals re-added later, temp removals never
        # re-added) per year.
        churn = {2012: (0, 5), 2013: (69, 3), 2014: (117, 2), 2015: (203, 0)}
        readd_year = {2013: 2014, 2014: 2015, 2015: 2015}
        # 2013 also removes www.google.com via the golem fix (1 domain),
        # 2014 removes A7/A3/A12 domains (2+2+2 = 6... A7's two are
        # re-added with A28, so only A3/A12's 4 are lost), 2015 removes
        # A19/A33's 4.  Structural domain removals are therefore
        # 2013: 1, 2014: 6, 2015: 4 — churn fills the rest.
        temp_counter = 0
        for year, (pool_removals, temp_removals) in churn.items():
            revs = [r for r in self._year_revs(year)
                    if r not in self._reserved_revs]
            target = YEARLY_TARGETS[year].domains_removed
            structural = {2012: 0, 2013: 1, 2014: 6, 2015: 4}[year]
            assert pool_removals + temp_removals + structural == target, year

            # Temp domains: introduced early in the year, removed late,
            # never re-added.
            for _ in range(temp_removals):
                fqd = f"temppub{temp_counter}.com"
                temp_counter += 1
                text = self._base_filter(fqd)
                self._churn_texts.add(text)
                plan.add(revs[2], [text], "Updated whitelists.")
                plan.remove(revs[-3], [text], "Updated whitelists.")

            # Pool churn: introduce early in the year (counts toward the
            # year's domain additions), remove later the same year, and
            # re-add in the re-add year (re-adds are not new domains).
            for i in range(pool_removals):
                fqd = self._generic_fqd()
                text = self._base_filter(fqd)
                self._churn_texts.add(text)
                intro = revs[3 + (i % max(1, len(revs) // 3))]
                removal = revs[len(revs) // 2
                               + (i % max(1, len(revs) // 3))]
                plan.add(intro, [text], "Updated whitelists.")
                plan.remove(removal, [text], "Updated whitelists.")
                target_year = readd_year[year]
                readd_revs = [r for r in self._year_revs(target_year)
                              if r not in self._reserved_revs]
                lo = (len(readd_revs) * 3) // 4
                readd = readd_revs[lo + (i % max(1, len(readd_revs) - lo))]
                if readd <= removal:
                    readd = min(removal + 1, readd_revs[-1])
                plan.add(readd, [text], "Updated whitelists.")
                self._record_publisher([text])

        # 2012 churn removes 5 temp domains (all of 2012's removals).
        # Generic growth: new pool FQDs to land domains_added exactly.
        first_rev = self._first_appearances()
        for year in YEARLY_TARGETS:
            structural = sum(1 for rev in first_rev.values()
                             if self.year_of_rev[rev] == year)
            target = YEARLY_TARGETS[year].domains_added
            deficit = target - structural
            if deficit < 0:
                raise RuntimeError(
                    f"{year}: structural domains {structural} exceed "
                    f"target {target}")
            revs = [r for r in self._year_revs(year)
                    if r not in self._reserved_revs]
            for i in range(deficit):
                fqd = self._generic_fqd()
                text = self._base_filter(fqd)
                rev = revs[4 + (i % max(1, len(revs) - 8))]
                plan.add(rev, [text], "Updated whitelists.")
                self._record_publisher([text])
                if rev < first_rev.get(fqd, len(self.calendar)):
                    first_rev[fqd] = rev

        # Mods and extras: bring filter add/remove counts to target.
        for year, targets in YEARLY_TARGETS.items():
            added, removed = self._structural_counts(year)
            mods = targets.filters_removed - removed
            if mods < 0:
                raise RuntimeError(
                    f"{year}: structural removals {removed} exceed "
                    f"target {targets.filters_removed}")
            extras = targets.filters_added - added - mods
            if extras < 0:
                raise RuntimeError(
                    f"{year}: structural adds {added} + mods {mods} "
                    f"exceed target {targets.filters_added}")
            revs = [r for r in self._year_revs(year)
                    if r not in self._reserved_revs]
            # Mods need existing filters to modify, so they live in the
            # second half of each year; extras can go anywhere past the
            # first few revisions.
            half = max(1, len(revs) // 2)
            for i in range(mods):
                plan.revs[revs[half + (i % (len(revs) - half))]].mods += 1
            for i in range(extras):
                plan.revs[revs[6 + (i % max(1, len(revs) - 8))]].extras += 1

    # -- committing --------------------------------------------------------

    def _commit_all(self) -> Repository:
        assert self.plan is not None
        repo = Repository()
        rng = self.rng
        extra_targets: list[str] = []   # FQDs eligible for extra filters

        for rev, plan in enumerate(self.plan.revs):
            added = list(plan.added)
            removed = list(plan.removed)
            added_this_rev = set(added)

            for _ in range(plan.mods):
                victim = self._pick_modifiable(rng, set(removed),
                                               added_this_rev)
                if victim is None:
                    raise RuntimeError(
                        f"rev {rev}: no modifiable filter available")
                removed.append(victim)
                self._modifiable.remove(victim)
                self._mod_counter += 1
                replacement = self._mutate(victim)
                added.append(replacement)
                added_this_rev.add(replacement)

            for _ in range(plan.extras):
                if (self._duplicates_budget > 0 and self._modifiable
                        and rng.random() < 0.02):
                    self._duplicates_budget -= 1
                    dup = rng.choice(self._modifiable)
                    self._dup_texts.add(dup)
                    added.append(dup)
                elif extra_targets:
                    fqd = rng.choice(extra_targets)
                    added.append(self._extra_filter(fqd))
                else:
                    self._extra_counter += 1
                    added.append(self._formatted(
                        f"@@||trackpix{self._extra_counter}.net/px.gif"
                        f"$image,third-party"))

            message = plan.message or "Updated whitelists."
            repo.commit(self.calendar[rev], message,
                        added=added, removed=removed)

            # State updates happen *after* the commit so mods in later
            # revisions never target a line added in this one.
            for line in added:
                if not _is_filter_line(line):
                    continue
                if (line.startswith("@@||adserv.genericnet.com/")
                        and line not in self._churn_texts):
                    self._modifiable.append(line)
                    extra_targets.extend(
                        domains_of(line, self._domain_cache))
        return repo

    def _pick_modifiable(self, rng: random.Random,
                         already_removed: set[str],
                         added_this_rev: set[str]) -> str | None:
        for _ in range(30):
            if not self._modifiable:
                return None
            candidate = rng.choice(self._modifiable)
            if (candidate not in already_removed
                    and candidate not in added_this_rev
                    and candidate not in self._dup_texts):
                return candidate
        return None

    def _mutate(self, text: str) -> str:
        """Produce a modified version of a generic base filter.

        Any previous modification marker is replaced, so repeatedly
        modified filters stay short (real modifications rewrite the
        pattern, they do not accrete).  Only the pattern changes, so the
        result keeps its victim's domains."""
        marker = f"/m{self._mod_counter}/"
        head, sep, tail = text.partition("$")
        head = _MOD_MARKER_RE.sub("/", head.rstrip("/") + "/")
        return self._formatted(f"{head.rstrip('/')}{marker}{sep}{tail}",
                               *domains_of(text, self._domain_cache))

    # -- orchestration -------------------------------------------------------

    def build(self) -> WhitelistHistory:
        self._build_calendar()
        self.plan = _Plan(len(self.calendar))
        self._schedule_structure()
        self._schedule_balance()
        repo = self._commit_all()
        directory = {
            domain: tuple(filters)
            for domain, filters in self.publisher_directory.items()
        }
        return WhitelistHistory(
            repository=repo,
            population=self.population,
            publisher_directory=directory,
            sitekeys=dict(self.sitekeys),
            seed=self.seed,
            key_bits=self.key_bits,
        )


_ABOUT_TOPICS = (
    "cars", "food", "travel", "health", "money", "style", "tech", "home",
    "garden", "sports", "movies", "music", "books", "history", "science",
    "pets", "crafts", "golf", "tennis", "soccer", "baseball", "yoga",
    "fitness", "beauty", "parenting", "dating", "careers", "education",
    "law", "taxes", "realestate", "insurance", "investing", "retirement",
    "weather", "news", "politics", "religion", "art", "photo", "video",
    "games", "puzzles", "comics", "humor", "quotes", "poetry", "spanish",
    "french", "german", "italian", "japanese", "chinese", "biology",
    "chemistry", "physics", "math", "geology", "astronomy", "archery",
)
