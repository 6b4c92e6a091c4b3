"""A Mercurial-like revision store for filter lists.

Eyeo tracks the Acceptable Ads whitelist in a public Mercurial
repository; the paper extracts all 988 revisions and mines them.  This
module is the storage layer: an append-only sequence of
:class:`Changeset` deltas (lines added / lines removed, plus date and
commit message), with snapshot reconstruction, ranged diffs, and the
integrity checks a real VCS enforces (you cannot remove a line that is
not present, nor add an exact duplicate of a tracked *unique* line —
duplicates must be added explicitly as such, mirroring how the real
whitelist ended up with 35 of them).

Revision numbering follows the paper: the first changeset is Rev 0, the
terminal one studied is Rev 988 (989 revisions in total).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Iterator

__all__ = ["Changeset", "Repository", "RepositoryError"]


class RepositoryError(ValueError):
    """Raised on inconsistent changesets (bad removals, dates, revs)."""


@dataclass(frozen=True, slots=True)
class Changeset:
    """One revision: metadata plus a line-level delta."""

    rev: int
    when: date
    message: str
    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    @property
    def churn(self) -> int:
        return len(self.added) + len(self.removed)


class Repository:
    """An append-only filter-list history.

    The working content is a *multiset* of lines with stable ordering
    (insertion order; a removal deletes the first live occurrence).  It
    is updated in place through a line → positions index, so a commit
    costs the size of its delta, not of the list.  Snapshots are
    reconstructed by replaying deltas, with a periodic snapshot cache so
    ``checkout`` stays fast for any revision.
    """

    _SNAPSHOT_EVERY = 64

    def __init__(self, name: str = "exceptionrules") -> None:
        self.name = name
        self._changesets: list[Changeset] = []
        #: The working content in insertion order; a removed line leaves
        #: a ``None`` tombstone so every later position stays valid.
        self._slots: list[str | None] = []
        #: line -> ascending positions of its live occurrences in
        #: ``_slots`` (plain lists: almost every line occurs once).
        self._positions: dict[str, list[int]] = {}
        self._live_lines = 0
        self._snapshots: dict[int, tuple[str, ...]] = {}

    # -- commit -----------------------------------------------------------

    def commit(self, when: date, message: str,
               added: Iterable[str] = (),
               removed: Iterable[str] = ()) -> Changeset:
        """Append a changeset; returns it.

        Raises :class:`RepositoryError` when a removed line is absent or
        the date precedes the previous changeset's date.
        """
        added_t = tuple(added)
        removed_t = tuple(removed)
        if self._changesets and when < self._changesets[-1].when:
            raise RepositoryError(
                f"changeset date {when} precedes tip "
                f"{self._changesets[-1].when}")
        # Validate the whole delta before touching the content, so a
        # refused commit changes nothing.
        taking: dict[str, int] = {}
        for line in removed_t:
            wanted = taking.get(line, 0) + 1
            if wanted > len(self._positions.get(line, ())):
                raise RepositoryError(
                    f"cannot remove absent line {line!r}")
            taking[line] = wanted
        slots = self._slots
        positions = self._positions
        for line in removed_t:
            live = positions[line]
            slots[live.pop(0)] = None     # the first live occurrence
            if not live:
                del positions[line]
        for line in added_t:
            positions.setdefault(line, []).append(len(slots))
            slots.append(line)
        self._live_lines += len(added_t) - len(removed_t)
        if len(slots) > 2 * self._live_lines + 64:
            self._compact()
        changeset = Changeset(rev=len(self._changesets), when=when,
                              message=message, added=added_t,
                              removed=removed_t)
        self._changesets.append(changeset)
        if changeset.rev % self._SNAPSHOT_EVERY == 0:
            self._snapshots[changeset.rev] = tuple(self._live())
        return changeset

    def _live(self) -> list[str]:
        """The working content: the slots without their tombstones."""
        return [line for line in self._slots if line is not None]

    def _compact(self) -> None:
        """Drop the tombstones (once they outnumber the live lines by 64)."""
        self._slots = self._live()
        self._positions = {}
        for position, line in enumerate(self._slots):
            self._positions.setdefault(line, []).append(position)

    # -- history access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._changesets)

    @property
    def tip(self) -> Changeset:
        if not self._changesets:
            raise RepositoryError("empty repository has no tip")
        return self._changesets[-1]

    def _check_rev(self, rev: int) -> int:
        """Validate a revision number, mirroring ``hg``'s own refusal.

        Negative and past-the-end revisions raise
        :class:`RepositoryError` naming the valid range — Python-style
        negative indexing is deliberately not supported, since a
        computed ``rev`` going negative is a caller bug that silent
        tail-indexing would turn into a wrong answer.
        """
        if not isinstance(rev, int) or isinstance(rev, bool):
            raise RepositoryError(
                f"revision must be an integer, got {rev!r}")
        if not 0 <= rev < len(self._changesets):
            if not self._changesets:
                raise RepositoryError(
                    f"no such revision {rev}: repository is empty")
            raise RepositoryError(
                f"no such revision {rev}: valid range is "
                f"0..{len(self._changesets) - 1}")
        return rev

    def __getitem__(self, rev: int) -> Changeset:
        return self._changesets[self._check_rev(rev)]

    def log(self) -> Iterator[Changeset]:
        """All changesets, oldest first."""
        return iter(self._changesets)

    def checkout(self, rev: int) -> list[str]:
        """The full list content as of revision ``rev`` (inclusive)."""
        self._check_rev(rev)
        if rev == len(self._changesets) - 1:
            return self._live()
        # Rev 0 always has a snapshot (0 % _SNAPSHOT_EVERY == 0), so the
        # nearest snapshot at or below ``rev`` always exists.
        base_rev = (rev // self._SNAPSHOT_EVERY) * self._SNAPSHOT_EVERY
        content = list(self._snapshots[base_rev])
        for changeset in self._changesets[base_rev + 1:rev + 1]:
            for line in changeset.removed:
                content.remove(line)
            content.extend(changeset.added)
        return content

    def diff(self, rev_a: int, rev_b: int) -> tuple[list[str], list[str]]:
        """Aggregate (added, removed) between two revisions (a < b).

        Lines both added and removed inside the range cancel out, like a
        real ``hg diff -r a -r b``.
        """
        self._check_rev(rev_a)
        self._check_rev(rev_b)
        if rev_a > rev_b:
            raise RepositoryError("diff requires rev_a <= rev_b")
        from collections import Counter

        before = Counter(self.checkout(rev_a))
        after = Counter(self.checkout(rev_b))
        added: list[str] = []
        removed: list[str] = []
        for line, count in (after - before).items():
            added.extend([line] * count)
        for line, count in (before - after).items():
            removed.extend([line] * count)
        return added, removed

    def revisions_in_year(self, year: int) -> list[Changeset]:
        return [c for c in self._changesets if c.when.year == year]

    def rev_at_date(self, when: date) -> int | None:
        """Last revision committed on or before ``when`` (None if none)."""
        dates = [c.when for c in self._changesets]
        index = bisect.bisect_right(dates, when) - 1
        return index if index >= 0 else None
