"""Resumable run checkpoints built on the write-ahead journal.

A :class:`Checkpoint` owns one :class:`~repro.state.journal.RunJournal`
and gives the survey a unit-of-work vocabulary on top of it:

* :meth:`Checkpoint.begin_scope` opens a named phase of the run (one
  survey engine-config/stratum group) and pins that phase's
  *configuration fingerprint* — resuming a journal under different
  parameters is an error, not a silent wrong answer.
* :meth:`Checkpoint.record` journals one completed unit (a crawled
  target) with an identifying key and an arbitrary JSON payload.
* :meth:`Checkpoint.completed` replays what an earlier (crashed)
  process already finished so the caller can skip straight to the
  first incomplete unit.

The survey is the only journaled stage: everything before it (the
whitelist history, the samples) is a pure function of the seed and is
regenerated on resume.  Units of scopes a resumed run never reopens
are read and ignored, so journals written by older versions, which
journaled more stages, still resume.

:meth:`Checkpoint.resume` is deliberately forgiving about *when* the
crash happened: a missing journal file means the previous run died
before writing anything (or never ran) and is treated as a fresh
start, and a torn final record — the signature of dying mid-append —
is truncated away (:attr:`truncated_tail` reports it).  What it is
**not** forgiving about is identity: a run-level ``meta`` mismatch or
a scope fingerprint mismatch raises :class:`CheckpointError`, because
replaying units produced under different parameters would corrupt the
resumed run's results.

>>> import os, tempfile
>>> path = os.path.join(tempfile.mkdtemp(), "run.ckpt")
>>> ckpt = Checkpoint.start(path, {"study": "demo"})
>>> ckpt.begin_scope("survey", {"targets": 3})
>>> ckpt.record("survey", "example.com", {"status": "success"})
>>> ckpt.close()
>>> resumed = Checkpoint.resume(path, {"study": "demo"})
>>> resumed.resumed
True
>>> resumed.begin_scope("survey", {"targets": 3})
>>> resumed.completed("survey")
[('example.com', {'status': 'success'})]
>>> resumed.close()
"""

from __future__ import annotations

import json
import os

from repro.state.journal import JournalError, RunJournal

__all__ = ["CheckpointError", "Checkpoint"]


class CheckpointError(ValueError):
    """Raised when a journal cannot be (safely) resumed."""


def _fingerprint(config: dict | None) -> str:
    """A stable, order-insensitive digest of a scope's parameters."""
    return json.dumps(config or {}, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))


class Checkpoint:
    """One resumable survey run: scopes, completed units, and their
    journal.

    Construct via :meth:`start` (fresh run) or :meth:`resume`
    (continue a possibly-crashed one).
    """

    def __init__(self, journal: RunJournal, *, resumed: bool,
                 truncated_tail: bool, records: list[dict]) -> None:
        self._journal = journal
        self.resumed = resumed
        self.truncated_tail = truncated_tail
        # scope name -> fingerprint recorded in the journal
        self._scopes: dict[str, str] = {}
        # scope name -> ordered (key, payload) pairs already completed
        self._units: dict[str, list[tuple[str, dict]]] = {}
        self._done_keys: dict[str, set[str]] = {}
        for record in records:
            kind = record.get("kind")
            if kind == "scope":
                self._scopes[record["scope"]] = record["fingerprint"]
            elif kind == "unit":
                scope = record["scope"]
                key = record["key"]
                if key in self._done_keys.setdefault(scope, set()):
                    continue  # redone unit after a torn-tail resume
                self._done_keys[scope].add(key)
                self._units.setdefault(scope, []).append(
                    (key, record["payload"]))

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def start(cls, path: str, meta: dict | None = None) -> "Checkpoint":
        """Begin a fresh run at ``path``, truncating any prior journal."""
        journal = RunJournal.create(path, meta)
        return cls(journal, resumed=False, truncated_tail=False,
                   records=[])

    @classmethod
    def resume(cls, path: str,
               meta: dict | None = None) -> "Checkpoint":
        """Continue the run journaled at ``path``.

        A missing file is a fresh start (so ``--resume`` is safe on
        the very first run).  ``meta``, when given, must match the
        journal header's meta exactly.
        """
        if not os.path.exists(path):
            return cls.start(path, meta)
        try:
            journal, records, truncated = RunJournal.open(path)
        except JournalError as exc:
            raise CheckpointError(str(exc)) from exc
        header = records[0]
        if meta is not None and header.get("meta") != meta:
            journal.close()
            raise CheckpointError(
                f"{path}: journal belongs to a different run "
                f"(journal meta {header.get('meta')!r}, expected "
                f"{meta!r}); delete it or drop --resume")
        return cls(journal, resumed=True, truncated_tail=truncated,
                   records=records[1:])

    def close(self) -> None:
        self._journal.close()

    def sync(self) -> None:
        """Durability barrier: fsync everything journaled so far."""
        self._journal.sync()

    @property
    def path(self) -> str:
        return self._journal.path

    # -- scopes and units ------------------------------------------------

    def begin_scope(self, scope: str, config: dict | None = None) -> None:
        """Open (or re-open) a named phase of the run.

        Raises :class:`CheckpointError` if the journal recorded the
        scope under a different configuration fingerprint; read the
        units it already completed with :meth:`completed`.
        """
        fingerprint = _fingerprint(config)
        recorded = self._scopes.get(scope)
        if recorded is None:
            self._scopes[scope] = fingerprint
            self._journal.append({"kind": "scope", "scope": scope,
                                  "fingerprint": fingerprint})
        elif recorded != fingerprint:
            raise CheckpointError(
                f"{self.path}: scope {scope!r} was journaled with "
                f"configuration {recorded} but is being resumed with "
                f"{fingerprint}; results would not be comparable")

    def completed(self, scope: str) -> list[tuple[str, dict]]:
        """Units already journaled for ``scope``, in completion order."""
        return list(self._units.get(scope, ()))

    def is_done(self, scope: str, key: str) -> bool:
        return key in self._done_keys.get(scope, ())

    def record(self, scope: str, key: str, payload: dict) -> None:
        """Journal one completed unit of work."""
        if scope not in self._scopes:
            raise CheckpointError(
                f"scope {scope!r} was never opened with begin_scope()")
        self._journal.append({"kind": "unit", "scope": scope,
                              "key": key, "payload": payload})
        self._done_keys.setdefault(scope, set()).add(key)
        self._units.setdefault(scope, []).append((key, payload))
