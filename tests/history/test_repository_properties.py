"""Property-based tests for the revision store (hypothesis)."""

from datetime import date, timedelta

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history.repository import Repository, RepositoryError

_LINE = st.text(alphabet="abcdef|@^.", min_size=1, max_size=10).map(
    lambda s: "@@||" + s)


@st.composite
def _changesets(draw):
    """A random valid sequence of (added, removed) deltas."""
    steps = draw(st.integers(min_value=1, max_value=120))
    plan = []
    working: list[str] = []
    for _ in range(steps):
        added = draw(st.lists(_LINE, max_size=4))
        removable = draw(st.lists(
            st.sampled_from(working), max_size=min(3, len(working)),
        )) if working else []
        # Removals must be satisfiable as a multiset.
        removed = []
        pool = list(working)
        for line in removable:
            if line in pool:
                pool.remove(line)
                removed.append(line)
        plan.append((added, removed))
        for line in removed:
            working.remove(line)
        working.extend(added)
    return plan


class TestRepositoryInvariants:
    @given(_changesets())
    @settings(max_examples=50, deadline=None)
    def test_replay_equals_incremental(self, plan):
        """checkout(i) must equal an independent replay of deltas 0..i."""
        repo = Repository()
        working: list[str] = []
        start = date(2011, 10, 3)
        for i, (added, removed) in enumerate(plan):
            repo.commit(start + timedelta(days=i), "m",
                        added=added, removed=removed)
            for line in removed:
                working.remove(line)
            working.extend(added)
        assert repo.checkout(len(plan) - 1) == working
        # Spot-check interior revisions, including snapshot boundaries.
        for rev in {0, len(plan) // 2, len(plan) - 1, 63, 64}:
            if rev < len(plan):
                repo.checkout(rev)

    @given(_changesets())
    @settings(max_examples=30, deadline=None)
    def test_line_conservation(self, plan):
        """len(content) == total added - total removed at every rev."""
        repo = Repository()
        start = date(2011, 10, 3)
        for i, (added, removed) in enumerate(plan):
            repo.commit(start + timedelta(days=i), "m",
                        added=added, removed=removed)
        running = 0
        for changeset in repo.log():
            running += len(changeset.added) - len(changeset.removed)
            assert len(repo.checkout(changeset.rev)) == running

    @given(_changesets())
    @settings(max_examples=30, deadline=None)
    def test_diff_applies_forward(self, plan):
        """Applying diff(a, b) to checkout(a) reproduces checkout(b)."""
        from collections import Counter

        repo = Repository()
        start = date(2011, 10, 3)
        for i, (added, removed) in enumerate(plan):
            repo.commit(start + timedelta(days=i), "m",
                        added=added, removed=removed)
        last = len(plan) - 1
        mid = last // 2
        added, removed = repo.diff(mid, last)
        before = Counter(repo.checkout(mid))
        after = Counter(repo.checkout(last))
        assert before + Counter(added) - Counter(removed) == after


#: Few distinct lines, so duplicates and repeated removals are common.
_FEW_LINES = st.sampled_from(["@@||a^", "@@||b^", "@@||c^", "@@||d^"])
_ABSENT = "@@||never-added^"


@st.composite
def _commits_with_a_refusal(draw):
    """Deltas over a naive list model, one of them a refused commit.

    Every delta may add duplicates and remove present lines (the same
    line more than once when it occurs more than once).  Exactly one
    delta also removes a line that is absent, after its valid removals.
    Returns ``[(added, removed, refused), ...]``.
    """
    steps = draw(st.integers(min_value=1, max_value=150))
    refused_at = draw(st.integers(min_value=0, max_value=steps - 1))
    model: list[str] = []
    plan = []
    for step in range(steps):
        added = draw(st.lists(_FEW_LINES, max_size=4))
        pool = list(model)
        removed = []
        for line in draw(st.lists(_FEW_LINES, max_size=3)):
            if line in pool:
                pool.remove(line)
                removed.append(line)
        if step == refused_at:
            at = draw(st.integers(min_value=0, max_value=len(removed)))
            plan.append((added, removed[:at] + [_ABSENT] + removed[at:],
                         True))
            continue
        plan.append((added, removed, False))
        for line in removed:
            model.remove(line)
        model.extend(added)
    return plan


class TestRepositoryAgainstListModel:
    @given(_commits_with_a_refusal())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_list_model(self, plan):
        """Removal takes the first occurrence; a refused commit changes
        nothing; checkout, tip and diff agree with a plain list."""
        repo = Repository()
        model: list[str] = []
        states: list[list[str]] = []
        day = date(2011, 10, 3)
        for i, (added, removed, refused) in enumerate(plan):
            when = day + timedelta(days=i)
            if refused:
                revisions = len(repo)
                with pytest.raises(RepositoryError, match="absent line"):
                    repo.commit(when, "m", added=added, removed=removed)
                assert len(repo) == revisions
                if revisions:
                    assert repo.checkout(revisions - 1) == model
                continue
            repo.commit(when, "m", added=added, removed=removed)
            for line in removed:
                model.remove(line)
            model.extend(added)
            states.append(list(model))

        assert len(repo) == len(states)
        for rev, state in enumerate(states):
            assert repo.checkout(rev) == state
        if states:
            assert repo.tip.rev == len(states) - 1
            for a, b in {(0, len(states) - 1),
                         (len(states) // 2, len(states) - 1)}:
                added, removed = repo.diff(a, b)
                before, after = Counter(states[a]), Counter(states[b])
                assert Counter(added) == after - before
                assert Counter(removed) == before - after
