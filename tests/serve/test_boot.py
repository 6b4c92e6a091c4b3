"""``repro serve`` boots: a restart from the store writes nothing.

Each test boots the real CLI in a child process, waits until it serves,
then stops it with SIGTERM (the graceful drain) and reads the run's
``--metrics-out`` counters.  A boot from the store's latest epoch whose
compiled artifact attaches leaves the store byte for byte and mtime for
mtime as it was; any other boot persists the sources and the artifact.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
LISTS = "||ads.example^\n||track.example^$third-party\n@@||ok.example^$script\n"


def boot(tmp_path: Path, store: Path, *args: str) -> dict[str, int]:
    """Boot, wait for the serving line, drain; the artifact counters."""
    metrics = tmp_path / f"metrics-{time.monotonic_ns()}.jsonl"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--snapshot-dir", str(store), "--metrics-out", str(metrics),
         *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        seen = b""
        deadline = time.monotonic() + 60
        while b"serving epoch" not in seen:
            assert time.monotonic() < deadline, seen
            ready, _, _ = select.select([process.stdout], [], [], 0.1)
            if ready:
                chunk = os.read(process.stdout.fileno(), 4096)
                assert chunk, (seen, process.stderr.read())
                seen += chunk
        process.send_signal(signal.SIGTERM)
        _out, err = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, err
    counters: dict[str, int] = {}
    for line in metrics.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("name") == "filters.index.automaton_artifact":
            counters[record["labels"]["event"]] = record["value"]
    return counters


def store_state(store: Path) -> dict[str, tuple[bytes, int]]:
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(store.iterdir())}


@pytest.fixture()
def populated(tmp_path):
    """A store that one boot from an explicit list file populated."""
    lists = tmp_path / "easylist.txt"
    lists.write_text(LISTS, encoding="utf-8")
    store = tmp_path / "store"
    counters = boot(tmp_path, store, "--lists", str(lists))
    assert counters == {"load_miss": 1, "saved": 1}
    return store


def blob(store: Path) -> Path:
    (path,) = store.glob("*.cidx")
    return path


def test_restart_from_store_writes_nothing(tmp_path, populated):
    before = store_state(populated)
    time.sleep(0.01)  # a rewrite would show as a later mtime
    assert boot(tmp_path, populated) == {"load_hit": 1}
    assert store_state(populated) == before


def test_explicit_lists_persist_even_when_stored(tmp_path, populated):
    lists = tmp_path / "easylist.txt"
    assert boot(tmp_path, populated, "--lists", str(lists)) == {
        "load_hit": 1, "saved": 1}


def test_missing_blob_is_persisted_again(tmp_path, populated):
    saved = blob(populated).read_bytes()
    blob(populated).unlink()
    assert boot(tmp_path, populated) == {"load_miss": 1, "saved": 1}
    assert blob(populated).read_bytes() == saved


def test_rejected_blob_is_persisted_again(tmp_path, populated):
    saved = blob(populated).read_bytes()
    blob(populated).write_bytes(saved[:-1] + bytes([saved[-1] ^ 0xFF]))
    assert boot(tmp_path, populated) == {"rejected": 1, "saved": 1}
    assert blob(populated).read_bytes() == saved
    assert boot(tmp_path, populated) == {"load_hit": 1}
