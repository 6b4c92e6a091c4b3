"""The write-ahead run journal: append-only, checksummed, replayable.

A paper-scale survey is hours of crawling; a longitudinal blacklist
study is months of collection.  The journal is what makes that work
crash-safe: every *completed unit of work* (one crawled target) is
appended as one self-verifying record **before** the run moves on, so
after a crash the pipeline knows exactly which units are done and
restarts from the first incomplete one (:mod:`repro.state.checkpoint`).

Record format — one line per record::

    <crc32 of payload, 8 hex digits> <payload JSON>\\n

The payload always carries ``"seq"``, a dense 0-based sequence number.
Three defects are distinguished on replay:

* **torn tail** — the final record is half-written (the classic crash
  signature: no newline, truncated JSON, or a CRC that does not match
  because the line is incomplete).  This is *expected* damage:
  :func:`replay_journal` reports the clean prefix and
  :meth:`RunJournal.open` truncates the file back to it, so the unit
  whose record was torn simply runs again.
* **mid-file corruption** — a bad record *followed by valid ones*
  cannot be explained by a crash (appends are sequential); that is
  disk-level damage and raises :class:`JournalCorruption` rather than
  silently dropping data.
* **sequence gaps** — a record whose ``seq`` is not the expected next
  integer also raises :class:`JournalCorruption`.

Every append is flushed to the OS (one ``write`` syscall); the
expensive durability barrier — fsync — is deferred to
:meth:`RunJournal.sync`, which checkpoint owners call at natural
barriers and :meth:`close` always calls.  A crash between syncs can
therefore lose at most the not-yet-fsynced tail *on power loss* —
which resume simply re-executes — never the journal's integrity.

>>> import os, tempfile
>>> path = os.path.join(tempfile.mkdtemp(), "run.jnl")
>>> journal = RunJournal.create(path, {"run": "demo"})
>>> journal.append({"kind": "unit", "n": 1})
>>> journal.close()
>>> records, truncated = replay_journal(path)
>>> [r.get("kind") for r in records], truncated
(['header', 'unit'], False)
"""

from __future__ import annotations

import json
import os
import zlib

from repro.state.crashpoints import CRASH

__all__ = [
    "JournalError",
    "JournalCorruption",
    "RunJournal",
    "replay_journal",
]

#: First-record format marker, checked on every replay.
JOURNAL_FORMAT = "repro-journal/1"


class JournalError(ValueError):
    """Raised for unusable journals (missing header, wrong format...)."""


class JournalCorruption(JournalError):
    """Raised for damage a crash cannot explain (mid-file, seq gaps)."""


def _encode(seq: int, body: dict) -> bytes:
    payload = json.dumps({"seq": seq, **body}, ensure_ascii=False,
                         separators=(",", ":"))
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n".encode("utf-8")


def _decode_line(line: bytes) -> dict | None:
    """One record, or ``None`` when the line fails any integrity check."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or not isinstance(
            record.get("seq"), int):
        return None
    return record


def _scan(raw: bytes, path: str) -> tuple[list[dict], int]:
    """All valid records plus the byte length of the clean prefix.

    Raises :class:`JournalCorruption` when damage is not confined to
    the tail.
    """
    records: list[dict] = []
    offset = 0
    bad_at: int | None = None
    for line in raw.split(b"\n")[:-1]:  # final element: b"" or torn tail
        record = _decode_line(line)
        if record is None or record["seq"] != len(records):
            bad_at = offset
            break
        records.append(record)
        offset += len(line) + 1
    if bad_at is not None:
        # Anything valid *after* the bad line means mid-file damage.
        remainder = raw[bad_at:]
        for line in remainder.split(b"\n")[1:]:
            if _decode_line(line) is not None:
                raise JournalCorruption(
                    f"{path}: corrupt record at byte {bad_at} followed "
                    "by valid records — journal is damaged mid-file, "
                    "not torn")
        return records, offset
    # No bad full line; any bytes past the last newline are a torn tail.
    return records, offset


class RunJournal:
    """An open, appendable run journal.

    Use :meth:`create` for a fresh run and :meth:`open` to resume one;
    the constructor is internal.
    """

    def __init__(self, path: str, stream, next_seq: int) -> None:
        self.path = path
        self._stream = stream
        self._next_seq = next_seq
        self._appends_since_sync = 0

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def create(cls, path: str, meta: dict | None = None) -> "RunJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        stream = open(path, "wb")
        journal = cls(path, stream, next_seq=0)
        journal.append({"kind": "header", "format": JOURNAL_FORMAT,
                        "meta": meta or {}})
        journal.sync()
        return journal

    @classmethod
    def open(cls, path: str) -> tuple["RunJournal", list[dict], bool]:
        """Reopen ``path`` for appending after validating its contents.

        Returns ``(journal, records, truncated)`` where ``records`` is
        every intact record (header first) and ``truncated`` says a
        torn tail was cut off.  The file is physically truncated back
        to its clean prefix before appending resumes.
        """
        records, clean_length, truncated = cls._replay_file(path)
        stream = open(path, "r+b")
        if truncated:
            stream.truncate(clean_length)
            stream.flush()
            os.fsync(stream.fileno())
        stream.seek(clean_length)
        return cls(path, stream, next_seq=len(records)), records, truncated

    @staticmethod
    def _replay_file(path: str) -> tuple[list[dict], int, bool]:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise JournalError(
                f"unreadable journal {path!r}: {exc}") from exc
        records, clean_length = _scan(raw, path)
        if not records:
            raise JournalError(
                f"{path}: no intact records (empty or fully torn journal)")
        header = records[0]
        if header.get("kind") != "header" \
                or header.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"{path}: first record is not a {JOURNAL_FORMAT} header")
        return records, clean_length, clean_length != len(raw)

    def close(self) -> None:
        if self._stream.closed:
            return
        self.sync()
        self._stream.close()

    @property
    def closed(self) -> bool:
        return self._stream.closed

    # -- writing ---------------------------------------------------------

    def append(self, body: dict) -> None:
        """Append one record (and count one crash step).

        Each append is also a crashpoint: when a
        :class:`~repro.state.crashpoints.CrashInjector` is about to
        fire, the process "dies" *before* the record lands — or, with
        ``torn=True``, after half of its bytes have been flushed,
        manufacturing exactly the torn tail a mid-``write`` power loss
        leaves behind.
        """
        data = _encode(self._next_seq, body)
        injector = CRASH.injector
        if injector is not None and injector.pending():
            if injector.torn:
                self._stream.write(data[:max(1, len(data) // 2)])
                self._stream.flush()
            injector.step(f"journal.append:{body.get('kind', '')}")
        self._stream.write(data)
        self._stream.flush()
        self._next_seq += 1
        self._appends_since_sync += 1
        if injector is not None:
            injector.step(f"journal.append:{body.get('kind', '')}")

    def sync(self) -> None:
        """Flush buffered appends and fsync the journal file."""
        if self._stream.closed or not self._appends_since_sync:
            return
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._appends_since_sync = 0


def replay_journal(path: str) -> tuple[list[dict], bool]:
    """Read-only replay: ``(records, torn_tail_truncated)``.

    Unlike :meth:`RunJournal.open` this never modifies the file, so it
    is safe for inspection while a run is (possibly) still alive.
    """
    records, _, truncated = RunJournal._replay_file(path)
    return records, truncated
