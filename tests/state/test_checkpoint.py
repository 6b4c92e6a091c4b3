"""Unit tests for resumable checkpoints (scopes and units)."""

import pytest

from repro.state.checkpoint import Checkpoint, CheckpointError
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing


def _path(tmp_path):
    return str(tmp_path / "run.ckpt")


class TestLifecycle:
    def test_record_and_resume_round_trip(self, tmp_path):
        path = _path(tmp_path)
        ckpt = Checkpoint.start(path, {"cmd": "survey"})
        ckpt.begin_scope("s", {"n": 2})
        assert ckpt.completed("s") == []
        ckpt.record("s", "a.com", {"rank": 1})
        ckpt.record("s", "b.com", {"rank": 2})
        ckpt.close()

        resumed = Checkpoint.resume(path, {"cmd": "survey"})
        assert resumed.resumed and not resumed.truncated_tail
        resumed.begin_scope("s", {"n": 2})
        assert resumed.completed("s") == [
            ("a.com", {"rank": 1}), ("b.com", {"rank": 2})]
        assert resumed.is_done("s", "a.com")
        assert not resumed.is_done("s", "c.com")
        resumed.close()

    def test_resume_missing_file_is_fresh_start(self, tmp_path):
        ckpt = Checkpoint.resume(_path(tmp_path), {"cmd": "survey"})
        assert not ckpt.resumed
        ckpt.begin_scope("s")
        assert ckpt.completed("s") == []
        ckpt.close()

    def test_start_truncates_prior_journal(self, tmp_path):
        path = _path(tmp_path)
        first = Checkpoint.start(path)
        first.begin_scope("s")
        first.record("s", "a.com", {})
        first.close()
        second = Checkpoint.start(path)
        second.close()
        resumed = Checkpoint.resume(path)
        assert resumed.completed("s") == []
        resumed.close()


class TestIdentityChecks:
    def test_meta_mismatch_rejected(self, tmp_path):
        path = _path(tmp_path)
        Checkpoint.start(path, {"cmd": "survey", "seed": 1}).close()
        with pytest.raises(CheckpointError, match="different run"):
            Checkpoint.resume(path, {"cmd": "survey", "seed": 2})

    def test_scope_fingerprint_mismatch_rejected(self, tmp_path):
        path = _path(tmp_path)
        ckpt = Checkpoint.start(path)
        ckpt.begin_scope("s", {"top_n": 100})
        ckpt.close()
        resumed = Checkpoint.resume(path)
        with pytest.raises(CheckpointError, match="not be comparable"):
            resumed.begin_scope("s", {"top_n": 200})
        resumed.close()

    def test_fingerprint_is_key_order_insensitive(self, tmp_path):
        path = _path(tmp_path)
        ckpt = Checkpoint.start(path)
        ckpt.begin_scope("s", {"a": 1, "b": 2})
        ckpt.close()
        resumed = Checkpoint.resume(path)
        resumed.begin_scope("s", {"b": 2, "a": 1})  # no error
        resumed.close()

    def test_record_requires_open_scope(self, tmp_path):
        ckpt = Checkpoint.start(_path(tmp_path))
        with pytest.raises(CheckpointError, match="begin_scope"):
            ckpt.record("s", "a.com", {})
        ckpt.close()


class TestCrashRecovery:
    def test_torn_tail_unit_is_redone_and_deduped(self, tmp_path):
        path = _path(tmp_path)
        ckpt = Checkpoint.start(path)
        ckpt.begin_scope("s")
        ckpt.record("s", "a.com", {"attempt": 1})
        with crashing(CrashInjector(at_step=1, torn=True)):
            with pytest.raises(SimulatedCrash):
                ckpt.record("s", "b.com", {"attempt": 1})
        ckpt.close()

        resumed = Checkpoint.resume(path)
        assert resumed.truncated_tail
        assert not resumed.is_done("s", "b.com")
        resumed.begin_scope("s")
        resumed.record("s", "b.com", {"attempt": 2})
        resumed.close()

        final = Checkpoint.resume(path)
        # Even if a key were journaled twice, the first wins.
        assert final.completed("s") == [("a.com", {"attempt": 1}),
                                        ("b.com", {"attempt": 2})]
        final.close()

    def test_scopes_are_independent(self, tmp_path):
        path = _path(tmp_path)
        ckpt = Checkpoint.start(path)
        ckpt.begin_scope("s1")
        ckpt.begin_scope("s2")
        ckpt.record("s1", "k", {"v": 1})
        ckpt.record("s2", "k", {"v": 2})
        ckpt.close()
        resumed = Checkpoint.resume(path)
        assert resumed.completed("s1") == [("k", {"v": 1})]
        assert resumed.completed("s2") == [("k", {"v": 2})]
        resumed.close()
