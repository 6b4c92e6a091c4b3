"""Crash safety for long-running measurement jobs.

``repro.state`` is the durability layer under the survey pipeline:

* :mod:`repro.state.atomic` — write-to-temp + fsync + rename artifact
  writes with CRC-checksummed JSONL footers, so a crash can never
  leave a half-written metrics file or report behind.
* :mod:`repro.state.journal` — the append-only, checksummed
  write-ahead :class:`~repro.state.journal.RunJournal` that records
  each completed unit of work.
* :mod:`repro.state.checkpoint` — :class:`~repro.state.checkpoint.\
Checkpoint`, which replays a journal, truncates torn tail records,
  validates configuration fingerprints, and tells the pipeline which
  units to skip on ``--resume``.
* :mod:`repro.state.crashpoints` — deterministic process-death
  injection (:class:`~repro.state.crashpoints.CrashInjector`) used by
  the crash-resume test harness.
* :mod:`repro.state.snapshots` — atomic, epoch-keyed
  :class:`~repro.state.snapshots.SnapshotStore` artifacts holding the
  filter-list sources each validated serving snapshot was compiled
  from, so a daemon restart reloads exactly the epoch it was serving.
* :mod:`repro.state.leaselog` — the work-stealing scheduler's
  supervision side-journal (:class:`~repro.state.leaselog.LeaseLog`):
  lease grants, revocations with poison strikes, and quarantines, kept
  out of the result checkpoint so finished checkpoints stay
  byte-identical across kill schedules.

The package is deliberately stdlib-only and imports nothing from the
rest of :mod:`repro`, so every other layer (web, measurement, history,
obs, cli) can depend on it without cycles.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".atomic": (
        "ArtifactError", "atomic_write_bytes", "atomic_write_jsonl",
        "atomic_write_text", "jsonl_footer", "read_jsonl",
    ),
    ".checkpoint": ("Checkpoint", "CheckpointError"),
    ".crashpoints": (
        "CRASH", "CrashInjector", "SimulatedCrash", "crashing", "crashpoint",
    ),
    ".journal": (
        "JournalCorruption", "JournalError", "RunJournal", "replay_journal",
    ),
    ".leaselog": (
        "LeaseLog", "discard_lease_log", "lease_log_path",
        "read_lease_strikes",
    ),
    ".snapshots": ("SnapshotStore", "SnapshotStoreError"),
})
