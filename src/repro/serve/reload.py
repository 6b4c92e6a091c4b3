"""Epoch-keyed hot reload: build in the background, swap atomically.

Filter lists churn constantly — "Who Filters the Filters" measures
EasyList changing every few hours — so for a serving daemon reloads are
routine, not exceptional, and the dangerous states are the quiet ones:
serving a half-loaded list, or crashing the serving path because a
candidate list failed to parse.  The reloader makes both impossible by
construction:

* the *candidate* snapshot is compiled off the serving path (the
  daemon runs it in a background thread) against private structures;
* the candidate is **validated before the swap** — unparseable or
  empty lists are rejected and the old epoch keeps serving (rollback
  is "don't swap", which cannot half-happen);
* the swap itself is one reference assignment under a lock, so every
  request sees exactly one complete snapshot, old or new;
* a reloader that *dies* mid-build (chaos-tested with the PR-3
  :class:`~repro.state.crashpoints.CrashInjector`) leaves the holder
  untouched: the old epoch serves until someone retries.

Each successful swap persists its source lists to the epoch-keyed
:class:`~repro.state.snapshots.SnapshotStore` (when one is attached),
plus the compiled filter-index artifact
(:mod:`repro.filters.compiled.artifact`) keyed by the same epoch and
content fingerprint — so a daemon restart, or a reload back to
previously served lists, skips keyword-bucket assignment and adopts the
stored assignments instead (falling back to a from-scratch build on any
artifact problem).

>>> from repro.serve.reload import SnapshotHolder, Reloader
>>> holder = SnapshotHolder.from_sources([("easylist", "||ads.example^")])
>>> reloader = Reloader(holder)
>>> result = reloader.reload([("easylist", "||ads.example^\\n||more.example^")])
>>> result.status, holder.current().epoch
('swapped', 2)
>>> bad = reloader.reload([("easylist", "")])
>>> bad.status, holder.current().epoch      # rollback: old epoch serves
('rejected', 2)
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.filters.compiled import (
    CompiledArtifactError,
    parse_artifact,
    serialize_artifact,
)
from repro.filters.engine import EngineSnapshot
from repro.filters.filterlist import FilterList, parse_filter_list
from repro.obs import OBS
from repro.state.crashpoints import crashpoint
from repro.state.snapshots import SnapshotStore, content_fingerprint

__all__ = [
    "ReloadError",
    "ReloadResult",
    "SnapshotHolder",
    "Reloader",
    "build_snapshot_from_sources",
    "persist_snapshot_artifact",
    "validate_sources",
]


class ReloadError(ValueError):
    """A candidate snapshot failed validation (reload rejected)."""


@dataclass(frozen=True, slots=True)
class ReloadResult:
    """One reload attempt's explicit outcome."""

    status: str               # "swapped" | "rejected" | "crashed"
    epoch: int                # the epoch *serving after* the attempt
    error: str | None = None
    filters: int = 0          # active filters in the swapped snapshot


def validate_sources(
        sources: Sequence[tuple[str, str]]) -> list[FilterList]:
    """Parse candidate lists, rejecting any that must never be served.

    Rules: at least one list; list names non-empty and unique; every
    list parses to at least one active filter (an empty or fully
    malformed list is almost always an upstream fetch gone wrong, and
    swapping it in would silently flip every verdict to NO_MATCH —
    exactly the "stale or half-loaded list" drift the longitudinal
    blocklist studies warn about).  Returns the parsed lists, in
    source order, so callers build from them without parsing again.
    """
    if not sources:
        raise ReloadError("no filter lists in candidate")
    seen: set[str] = set()
    lists: list[FilterList] = []
    for name, text in sources:
        if not name:
            raise ReloadError("candidate list with an empty name")
        if name in seen:
            raise ReloadError(f"duplicate list name {name!r} in candidate")
        seen.add(name)
        parsed = parse_filter_list(text, name=name)
        active = len(parsed)
        if active == 0:
            raise ReloadError(
                f"candidate list {name!r} parsed to 0 active filters")
        lists.append(parsed)
    return lists


def build_snapshot_from_sources(
        sources: Sequence[tuple[str, str]],
        store: SnapshotStore | None = None) -> EngineSnapshot:
    """Validate and compile ``(name, text)`` sources into a snapshot.

    With a ``store`` attached, the compiled filter-index artifact keyed
    by the sources' content fingerprint is tried first: a hit skips
    keyword-bucket assignment entirely (the lists are still parsed and
    validated, once — the artifact carries *index structure*, not filter
    semantics).  Any artifact problem — absent,
    corrupt, stale — falls back to the from-scratch build, so the
    artifact path can only ever make a reload faster, never wronger.

    The ``serve.reload.build`` crashpoint lets the chaos harness kill
    the builder mid-compile and prove the old epoch keeps serving.
    """
    return _build_snapshot(sources, store)[0]


def _build_snapshot(sources, store):
    """The snapshot, and whether the stored artifact attached to it."""
    lists = validate_sources(sources)
    crashpoint("serve.reload.build")
    if store is not None:
        snapshot = _snapshot_from_artifact(sources, lists, store)
        if snapshot is not None:
            return snapshot, True
    return EngineSnapshot.build(lists), False


def _snapshot_from_artifact(sources, lists, store):
    """The artifact fast path; ``None`` means "build from scratch"."""
    found = store.load_blob(content_fingerprint(sources))
    if found is None:
        _count_artifact("load_miss")
        return None
    _epoch, payload = found
    try:
        snapshot = parse_artifact(payload).build_snapshot(lists)
    except CompiledArtifactError:
        # Every rejection — corrupt, wrong version, stale — lands here.
        _count_artifact("rejected")
        return None
    _count_artifact("load_hit")
    return snapshot


def _count_artifact(event: str) -> None:
    if OBS.enabled:
        OBS.registry.counter("filters.index.automaton_artifact",
                             event=event).inc()


def persist_snapshot_artifact(store: SnapshotStore,
                              snapshot: EngineSnapshot,
                              sources: Sequence[tuple[str, str]]) -> None:
    """Save a swapped snapshot's sources *and* its compiled-index blob.

    The blob shares the source snapshot's epoch + content-fingerprint
    identity, so the next boot or reload of these exact lists loads the
    stored bucket assignments instead of re-deriving them.
    """
    store.save(snapshot.epoch, sources)
    fingerprint = content_fingerprint(
        [(str(name), str(text)) for name, text in sources])
    store.save_blob(snapshot.epoch, fingerprint,
                    serialize_artifact(snapshot, fingerprint=fingerprint))
    _count_artifact("saved")


class SnapshotHolder:
    """The atomically-swappable reference to the serving snapshot.

    Readers call :meth:`current` (one lock acquisition, no copies);
    the reloader calls :meth:`swap`.  ``generation`` counts successful
    swaps — distinct from the engine epoch, which is a property of the
    compiled filter set (reloading identical lists keeps the epoch).
    """

    def __init__(self, snapshot: EngineSnapshot,
                 sources: Sequence[tuple[str, str]] = ()) -> None:
        self._lock = threading.Lock()
        self._snapshot = snapshot
        self._sources = list(sources)
        self.generation = 0

    @classmethod
    def from_sources(cls, sources: Sequence[tuple[str, str]],
                     store: SnapshotStore | None = None
                     ) -> "SnapshotHolder":
        """Boot a holder, loading the compiled artifact when available."""
        return cls(build_snapshot_from_sources(sources, store), sources)

    @classmethod
    def boot(cls, sources: Sequence[tuple[str, str]],
             store: SnapshotStore | None, *, stored: bool
             ) -> "SnapshotHolder":
        """Boot a daemon's holder and make ``store`` hold what it serves.

        ``stored`` says ``sources`` are the store's latest epoch.  When
        they are and their compiled artifact attached, the store already
        holds both, and persisting would only rewrite identical bytes,
        so nothing is written.  Any other boot with a store — explicit
        list files, an empty store, a missing or rejected blob —
        persists the sources and the artifact, so the next restart
        loads the artifact.
        """
        snapshot, attached = _build_snapshot(sources, store)
        if store is not None and not (stored and attached):
            persist_snapshot_artifact(store, snapshot, sources)
        return cls(snapshot, sources)

    def current(self) -> EngineSnapshot:
        with self._lock:
            return self._snapshot

    def sources(self) -> list[tuple[str, str]]:
        with self._lock:
            return list(self._sources)

    def swap(self, snapshot: EngineSnapshot,
             sources: Sequence[tuple[str, str]]) -> int:
        with self._lock:
            self._snapshot = snapshot
            self._sources = list(sources)
            self.generation += 1
            return self.generation


class Reloader:
    """Builds candidate snapshots and swaps them in atomically.

    One reload runs at a time (``busy`` refusals are explicit, like
    every other outcome in this package).  ``state()`` exposes the
    state machine — ``idle`` → ``building`` → back to ``idle`` with the
    last result recorded — which ``/healthz`` reports verbatim.
    """

    def __init__(self, holder: SnapshotHolder,
                 store: SnapshotStore | None = None) -> None:
        self.holder = holder
        self.store = store
        #: The builder, as an instance attribute so the chaos harness
        #: can wedge it (block it mid-build) without monkeypatching
        #: the module.  The store rides along so repeat reloads of
        #: already-compiled lists take the artifact fast path.
        self._build = functools.partial(build_snapshot_from_sources,
                                        store=store)
        self._build_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._state = "idle"
        self._last: ReloadResult | None = None

    def _set_state(self, state: str,
                   result: ReloadResult | None = None) -> None:
        with self._state_lock:
            self._state = state
            if result is not None:
                self._last = result

    def state(self) -> dict:
        with self._state_lock:
            status = {"state": self._state,
                      "generation": self.holder.generation}
            if self._last is not None:
                status["last_reload"] = {
                    "status": self._last.status,
                    "epoch": self._last.epoch,
                    "error": self._last.error,
                }
            return status

    def reload(self, sources: Iterable[tuple[str, str]]) -> ReloadResult:
        """One reload attempt: validate → build → swap, or roll back.

        Never raises for a bad candidate — rejection *is* the rollback
        (the holder is only touched after a fully validated build).  A
        :class:`~repro.state.crashpoints.SimulatedCrash` (chaos) is
        recorded as ``crashed`` and re-raised so the harness sees the
        death, with the holder untouched either way.
        """
        sources = [(str(name), str(text)) for name, text in sources]
        if not self._build_lock.acquire(blocking=False):
            return ReloadResult(
                status="rejected",
                epoch=self.holder.current().epoch,
                error="a reload is already in progress")
        try:
            self._set_state("building")
            try:
                candidate = self._build(sources)
            except ReloadError as exc:
                result = ReloadResult(status="rejected",
                                      epoch=self.holder.current().epoch,
                                      error=str(exc))
                self._count(result)
                self._set_state("idle", result)
                return result
            except BaseException as exc:
                # The chaos harness's simulated reloader death (or any
                # unexpected builder bug): record it, leave the old
                # snapshot serving, and let the exception propagate to
                # whoever owns the thread.
                result = ReloadResult(status="crashed",
                                      epoch=self.holder.current().epoch,
                                      error=f"{type(exc).__name__}: {exc}")
                self._count(result)
                self._set_state("idle", result)
                raise
            self.holder.swap(candidate, sources)
            if self.store is not None:
                persist_snapshot_artifact(self.store, candidate, sources)
            result = ReloadResult(status="swapped", epoch=candidate.epoch,
                                  filters=candidate.filter_count)
            self._count(result)
            self._set_state("idle", result)
            return result
        finally:
            self._build_lock.release()

    @staticmethod
    def _count(result: ReloadResult) -> None:
        if OBS.enabled:
            OBS.registry.counter("serve.reloads",
                                 result=result.status).inc()
            OBS.registry.gauge("serve.reload.epoch").set(result.epoch)
        OBS.flight.record(f"reload.{result.status}", epoch=result.epoch,
                          filters=result.filters, error=result.error)
