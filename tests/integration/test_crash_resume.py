"""Acceptance: kill the pipeline at any step, resume, get identical output.

The crash-safety contract (see ``docs/RESILIENCE.md``) is that a run
killed at an arbitrary journal append — on a clean record boundary or
mid-write (torn tail) — and restarted with ``Checkpoint.resume`` is
byte-identical to an uninterrupted run.  These tests inject
``SimulatedCrash`` at early/late/torn steps of the Section 5 survey,
then compare full outcome projections and rendered outputs against an
unjournaled baseline.  The whitelist history is never journaled (it is
regenerated from the seed), so it has no crash points of its own.

Observability stays disabled (the default): a resumed run legitimately
skips re-incrementing counters for replayed units, so metric files are
the one artifact exempt from the byte-identity contract.
"""

import io
import json

import pytest

from repro.cli import main
from repro.measurement.stats import section51_headline
from repro.measurement.survey import SurveyConfig, run_survey
from repro.reporting.tables import render_crawl_health
from repro.state import Checkpoint, RunJournal, replay_journal
from repro.state.crashpoints import CrashInjector, SimulatedCrash, crashing
from repro.web.crawlstate import snapshot_outcome

#: Small but adversarial: 30% injected faults exercise retries and
#: rng-consuming backoff around the crash point.
_CONFIG = SurveyConfig(top_n=20, stratum_size=5, fault_rate=0.3,
                       fault_seed=7)
#: 35 targets x 2 engine configs = 70 unit appends + 2 scope appends.
_LAST_APPEND = 72


def _canonical(result) -> str:
    """Everything downstream consumers read, as one comparable string."""
    payload = {
        "with": {group: [snapshot_outcome(o) for o in outcomes]
                 for group, outcomes in result.outcomes.items()},
        "without": {group: [snapshot_outcome(o) for o in outcomes]
                    for group, outcomes
                    in result.outcomes_easylist_only.items()},
    }
    return "\n".join([
        json.dumps(payload, sort_keys=True),
        render_crawl_health(result.crawl_health()),
        repr(section51_headline(result.all_records())),
    ])


@pytest.fixture(scope="module")
def baseline(history):
    """The uninterrupted, unjournaled run every scenario must match."""
    return _canonical(run_survey(history, _CONFIG))


def _crash_then_resume(history, path, at_step, torn=False):
    checkpoint = Checkpoint.start(path)
    try:
        with crashing(CrashInjector(at_step=at_step, torn=torn)):
            with pytest.raises(SimulatedCrash):
                run_survey(history, _CONFIG, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    resumed = Checkpoint.resume(path)
    assert resumed.resumed
    assert resumed.truncated_tail == torn
    try:
        return run_survey(history, _CONFIG, checkpoint=resumed)
    finally:
        resumed.close()


class TestSurveyCrashResume:
    def test_uninterrupted_checkpointed_run_matches_plain(
            self, history, baseline, tmp_path):
        checkpoint = Checkpoint.start(str(tmp_path / "run.ckpt"))
        try:
            result = run_survey(history, _CONFIG, checkpoint=checkpoint)
        finally:
            checkpoint.close()
        assert _canonical(result) == baseline

    @pytest.mark.parametrize("at_step", [3, _LAST_APPEND - 1])
    def test_kill_and_resume_identical(self, history, baseline, tmp_path,
                                       at_step):
        result = _crash_then_resume(history, str(tmp_path / "run.ckpt"),
                                    at_step)
        assert _canonical(result) == baseline

    def test_torn_write_mid_run_identical(self, history, baseline,
                                          tmp_path):
        result = _crash_then_resume(history, str(tmp_path / "run.ckpt"),
                                    at_step=40, torn=True)
        assert _canonical(result) == baseline

    def test_resume_with_different_config_rejected(self, history,
                                                   tmp_path):
        from repro.state import CheckpointError

        path = str(tmp_path / "run.ckpt")
        _crash_then_resume(history, path, at_step=3)
        resumed = Checkpoint.resume(path)
        other = SurveyConfig(top_n=20, stratum_size=5, fault_rate=0.5,
                             fault_seed=7)
        try:
            with pytest.raises(CheckpointError, match="not be comparable"):
                run_survey(history, other, checkpoint=resumed)
        finally:
            resumed.close()


class TestCliResume:
    ARGS = ("survey", "--fast", "--top", "20", "--stratum", "5",
            "--fault-rate", "0.3")

    def _run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        assert code == 0, out.getvalue()
        return out.getvalue()

    def test_checkpointed_then_resumed_output_identical(self, tmp_path):
        path = str(tmp_path / "cli.ckpt")
        plain = self._run(*self.ARGS)
        checkpointed = self._run(*self.ARGS, "--checkpoint", path)
        assert checkpointed == plain
        resumed = self._run(*self.ARGS, "--checkpoint", path, "--resume")
        assert resumed == f"resuming from checkpoint {path}\n" + plain

    def test_resume_requires_checkpoint_flag(self):
        out = io.StringIO()
        assert main(["survey", "--fast", "--resume"], out=out) == 2
        assert "--resume requires --checkpoint" in out.getvalue()

    def test_resume_under_different_flags_rejected(self, tmp_path):
        path = str(tmp_path / "cli.ckpt")
        self._run("survey", "--fast", "--top", "20", "--stratum", "5",
                  "--seed", "1", "--checkpoint", path)
        out = io.StringIO()
        code = main(["survey", "--fast", "--top", "20", "--stratum", "5",
                     "--checkpoint", path, "--resume"], out=out)
        assert code == 2
        assert "different run" in out.getvalue()

    @pytest.mark.parametrize("argv", [
        ["table1", "--checkpoint", "run.ckpt"],
        ["serve", "--resume"],
    ])
    def test_checkpoint_flags_only_on_survey(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv, out=io.StringIO())
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_resumes_checkpoint_with_journaled_history(self, history,
                                                       tmp_path):
        """Older journals open with a ``history`` scope of revision
        units before the survey scopes.  Resuming one ignores the
        history units (the history is regenerated) and replays the
        survey units."""
        plain = self._run(*self.ARGS)
        fresh = str(tmp_path / "fresh.ckpt")
        self._run(*self.ARGS, "--checkpoint", fresh)
        records, _ = replay_journal(fresh)
        header, survey_records = records[0], records[1:]

        path = str(tmp_path / "old.ckpt")
        journal = RunJournal.create(path, header["meta"])
        journal.append({"kind": "scope", "scope": "history",
                        "fingerprint": '{"key_bits":128,"seed":2015}'})
        for change in list(history.repository.log())[:3]:
            journal.append({"kind": "unit", "scope": "history",
                            "key": str(change.rev), "payload": {
                                "when": change.when.isoformat(),
                                "message": change.message,
                                "added": list(change.added),
                                "removed": list(change.removed),
                                "state": {"mod_counter": 0,
                                          "extra_counter": 0,
                                          "duplicates_budget": 35,
                                          "dup_texts": []}}})
        # Half the survey: the resumed run must crawl the rest.
        for record in survey_records[:len(survey_records) // 2]:
            journal.append({key: value for key, value in record.items()
                            if key != "seq"})
        journal.close()

        resumed = self._run(*self.ARGS, "--checkpoint", path, "--resume")
        assert resumed == f"resuming from checkpoint {path}\n" + plain


class TestBenchmarkSmoke:
    """Satellite: keep the checkpoint-overhead benchmark importable."""

    def test_compare_overhead_harness(self):
        from benchmarks.bench_checkpoint_overhead import compare_overhead

        result = compare_overhead(
            SurveyConfig(top_n=10, stratum_size=5, fault_rate=0.2,
                         fault_seed=7), repeats=1)
        assert result["plain_s"] > 0
        assert result["journaled_s"] > 0
