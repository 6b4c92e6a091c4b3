"""Tests for the command-line interface."""

import hashlib
import io
from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


FAST = ("--fast",)


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "growth", "scope", "table2", "survey",
                        "parking", "exploit", "perception", "afilters",
                        "hygiene", "transparency", "blockable"):
            args = parser.parse_args(
                [command] + (["reddit.com"]
                             if command == "blockable" else []))
            assert args.command == command

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flags_accepted_after_subcommand(self):
        args = build_parser().parse_args(["table1", "--fast",
                                          "--seed", "7"])
        assert args.fast and args.seed == 7

    def test_shared_flags_rejected_before_subcommand(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["--metrics-out", "x", "table1"], out=io.StringIO())
        assert exit_info.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, option", [
        (["survey", "--fault-rate", "1.5"], "--fault-rate"),
        (["survey", "--workers", "0"], "--workers"),
        (["survey", "--max-retries", "-1"], "--max-retries"),
        (["survey", "--top", "0"], "--top"),
        (["survey", "--workers", "2", "--lease-size", "0"],
         "--lease-size"),
        (["serve", "--max-inflight", "0"], "--max-inflight"),
        (["serve", "--max-queue", "-1"], "--max-queue"),
        (["survey", "--max-worker-restarts", "-1"],
         "--max-worker-restarts"),
        (["temporal", "--top", "0"], "--top"),
        (["survey", "--stratum", "-3"], "--stratum"),
        (["parking", "--divisor", "0"], "--divisor"),
        (["exploit", "--bits", "15"], "--bits"),
        (["table1", "--timeseries-interval", "0"],
         "--timeseries-interval"),
        (["obs", "timeline", "ts.jsonl", "--width", "0"], "--width"),
        (["obs", "timeline", "ts.jsonl", "--width", "-3"], "--width"),
        (["obs", "slow", "t.jsonl", "--top", "-1"], "--top"),
        (["obs", "diff", "a.jsonl", "b.jsonl", "--tolerance", "-1"],
         "--tolerance"),
        (["obs", "watch", "ts.jsonl", "--interval", "-1"], "--interval"),
        (["table1", "--flight-capacity", "-5"], "--flight-capacity"),
        (["table1", "--flight-capacity", "0"], "--flight-capacity"),
        (["serve", "--port", "70000"], "--port"),
        (["serve", "--deadline-ms", "-5"], "--deadline-ms"),
        (["exploit", "--bits", "100000"], "--bits"),
        (["blockable", "exa mple.com"], "domain"),
        (["blockable", "ex..ample.com"], "domain"),
        (["blockable", "example.com:99999"], "domain"),
        (["blockable", "http://x"], "domain"),
        (["blockable", ""], "domain"),
        (["survey", "--top=--"], "--top"),
        (["exploit", "--seed=--"], "--seed"),
        (["survey", "--top", "1000001"], "--top"),
        (["temporal", "--top", "1000001"], "--top"),
        (["temporal", "--top=99999999999"], "--top"),
    ])
    def test_out_of_range_values_are_usage_errors(self, argv, option,
                                                  capsys):
        # The parser alone must refuse the value first: were it let
        # through, ``main`` would start the long run it names.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(argv, out=io.StringIO())
        assert exit_info.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["survey", "temporal"])
    def test_top_is_capped_at_the_ranking_size(self, command, capsys):
        """Parser only: an accepted 1,000,000 is a long run."""
        assert build_parser().parse_args(
            [command, "--top", "1000000"]).top == 1_000_000
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        assert "1 to 1,000,000" in \
            " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("workers", ["65", "100000"])
    def test_worker_count_has_a_ceiling(self, workers, capsys):
        """Checked by the parser alone, so a regression can never fork
        that many processes inside the test."""
        assert build_parser().parse_args(
            ["survey", "--workers", "64"]).workers == 64
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["survey", "--workers", workers])
        assert exit_info.value.code == 2
        assert "argument --workers: must be <= 64" in \
            capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "-1", "x"])
    def test_drain_timeout_rejects_nan_and_negatives(self, value, capsys):
        """Parser only, so no daemon binds a port.  A ``nan`` timeout
        made a SIGTERM drain with requests in flight spin unbounded."""
        parser = build_parser()
        for accepted, want in (("0", 0.0), ("inf", float("inf"))):
            assert parser.parse_args(
                ["serve", "--drain-timeout", accepted]).drain_timeout == want
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["serve", "--drain-timeout", value])
        assert exit_info.value.code == 2
        assert "argument --drain-timeout:" in capsys.readouterr().err


class TestCommands:
    def test_table1(self):
        text = run_cli("table1", *FAST)
        assert "2011" in text and "5152" in text
        assert "2,011" not in text  # years render as years

    def test_growth(self):
        text = run_cli("growth", *FAST)
        assert "5,936" in text
        assert "jump: Rev 200" in text

    def test_scope(self):
        text = run_cli("scope", *FAST)
        assert "unrestricted: 156" in text
        assert "4 keys" in text

    def test_table2(self):
        text = run_cli("table2", *FAST)
        assert "Top 100" in text
        assert "33" in text

    def test_hygiene(self):
        text = run_cli("hygiene", *FAST)
        assert "duplicates: 35" in text

    def test_afilters(self):
        text = run_cli("afilters", *FAST)
        assert "61 added" in text
        assert "A7 re-added as A28" in text

    def test_transparency(self):
        text = run_cli("transparency", *FAST)
        assert "TRANSPARENCY REPORT" in text

    def test_exploit(self):
        text = run_cli("exploit", "--bits", "48", *FAST)
        assert "full bypass: True" in text

    def test_perception(self):
        text = run_cli("perception", *FAST)
        assert "Figure 9(d)" in text
        assert "disagreeing" in text

    def test_blockable_known_publisher(self):
        text = run_cli("blockable", "reddit.com", *FAST)
        assert "Blockable items" in text
        assert "allowed" in text

    def test_seed_changes_output(self):
        a = run_cli("growth", *FAST)
        b = run_cli("growth", "--seed", "7", *FAST)
        assert "jump: Rev 200" in a and "jump: Rev 200" in b


class TestServeSources:
    def test_study_lists_boot_unchanged(self, history, monkeypatch):
        """With no ``--lists`` and no stored snapshot, ``repro serve``
        boots from the study's EasyList and whitelist, byte for byte."""
        monkeypatch.setattr(cli, "_study",
                            lambda args: SimpleNamespace(history=history))
        args = build_parser().parse_args(["serve", *FAST])
        sources, stored = cli._serve_sources(args, io.StringIO())
        assert not stored
        assert [name for name, _ in sources] == ["easylist",
                                                 "exceptionrules"]
        digest = hashlib.sha256()
        for name, text in sources:
            digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        assert digest.hexdigest() == (
            "a69ec11d095de6b2fa01776eec6d40d36862b5b1eb384c310efc85a6c126f2a5")
