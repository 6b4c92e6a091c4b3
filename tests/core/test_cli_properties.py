"""Property test: the CLI's numeric options never crash it.

Hypothesis drives :func:`repro.cli.main` in-process over ``repro
survey``'s, ``repro temporal``'s and ``repro exploit``'s numeric options
with values in and out of range, plus text that is no number at all.
Every call must end in exit 0 (it ran), 1 or 2 (a usage error), with no
traceback, inside a per-call time cap.

The draws stay small on purpose: ``--top`` at most 20 when in range,
``--stratum`` at most 5, never more than 2 ``--workers`` and ``--bits``
at most 24 when in range, so no draw starts more than two processes, a
long crawl or a long factorisation.  Options whose in-range values can
mean a long run, a daemon or a watch loop go through the parser only:
``repro serve``'s (``main`` would bind a port), ``parking --divisor``
(a small divisor scans a full-size zone) and the ``repro obs`` tools'
numeric options.
"""

import contextlib
import io
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main

#: Wall seconds one in-process ``main`` call may take.  An in-range
#: draw crawls at most 40 units per configuration (~0.3 s).
_CALL_CAP_S = 20

#: Text no numeric option accepts.
_JUNK = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "--", "-inf"])


def _int_option(low: int, high: int):
    """An int in ``[low, high]`` as text, or junk one time in ten."""
    return st.integers(0, 9).flatmap(
        lambda roll: _JUNK if roll == 0
        else st.integers(low, high).map(str))


#: ``--top``/``--stratum`` are always passed: their defaults (800, 150)
#: would make every in-range draw a seconds-long crawl.
_SIZES = {
    "--top": _int_option(-3, 20),
    "--stratum": _int_option(-2, 5),
}
_OPTIONAL = {
    "--workers": _int_option(-1, 2),
    "--lease-size": _int_option(-2, 100),
    "--max-retries": _int_option(-2, 3),
    "--max-worker-restarts": _int_option(-2, 4),
    "--fault-rate": st.one_of(
        st.floats(-0.5, 1.5).map(repr),
        st.sampled_from(["nan", "inf", "1e-9", "-0.0"]), _JUNK),
}


class _CallTimedOut(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _CallTimedOut(f"main() ran past {_CALL_CAP_S} s")


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, under the time cap.

    Any exception but ``SystemExit``, or the cap, propagates and fails.
    """
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, _CALL_CAP_S)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out=io.StringIO())
    except SystemExit as exit_info:
        code = exit_info.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _argv(command: list[str], options: dict[str, str]) -> list[str]:
    return command + [f"{flag}={value}" for flag, value in options.items()]


@given(st.fixed_dictionaries(_SIZES, optional=_OPTIONAL))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_survey_options_exit_cleanly(options):
    argv = _argv(["survey", "--fast"], options)
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv


#: ``--bits`` below, inside (16-24) and above the accepted range; an
#: in-range draw factors its key in well under a second.  Always
#: passed: the default, 64, is a longer factorisation.
_BITS = {"--bits": st.one_of(_int_option(-2, 24),
                             st.integers(16, 24).map(str),
                             st.sampled_from(["89", "200"]))}
_SEED = {"--seed": st.one_of(st.integers().map(str), _JUNK)}


@given(st.fixed_dictionaries(_BITS, optional=_SEED))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_exploit_options_exit_cleanly(options):
    argv = _argv(["exploit"], options)
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv


#: ``--top`` in range only up to 20; above the 1,000,000 cap it is a
#: usage error, never a run.
_TEMPORAL = {"--top": st.one_of(
    _int_option(-3, 20),
    st.sampled_from(["1000001", "99999999999", "-1000001"]))}


@given(st.fixed_dictionaries(_TEMPORAL))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_temporal_options_exit_cleanly(options):
    argv = _argv(["temporal", "--fast"], options)
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv


def _float_option(low: float, high: float):
    return st.one_of(st.floats(low, high).map(repr),
                     st.sampled_from(["nan", "inf", "-inf", "-0.0"]), _JUNK)


def _parse_or_exit_2(argv: list[str]):
    """The parsed namespace, or ``None`` after a clean usage error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return build_parser().parse_args(argv)
    except SystemExit as exit_info:
        assert exit_info.code == 2, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        return None


@given(st.fixed_dictionaries({}, optional={
    "--divisor": st.one_of(_int_option(-5, 10**9),
                           st.integers().map(str))}))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_parking_divisor_parses_or_exits_2(options):
    args = _parse_or_exit_2(_argv(["parking"], options))
    if args is not None:
        assert args.divisor >= 1


_SERVE = {
    "--port": _int_option(-2, 70_000),
    "--max-inflight": _int_option(-2, 64),
    "--max-queue": _int_option(-2, 512),
    "--deadline-ms": _float_option(-10.0, 5_000.0),
    "--drain-timeout": _float_option(-10.0, 60.0),
}


@given(st.fixed_dictionaries({}, optional=_SERVE))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_serve_options_parse_or_exit_2(options):
    """What the parser accepts is in range; the rest is a usage error."""
    argv = _argv(["serve"], options)
    args = _parse_or_exit_2(argv)
    if args is None:
        return
    assert 0 <= args.port <= 65_535
    assert args.max_inflight >= 1 and args.max_queue >= 0
    assert args.deadline_ms > 0 and args.drain_timeout >= 0, argv


#: Each ``repro obs`` tool with its positional arguments and numeric
#: options.  Nothing is read: the parser never opens the paths.
_OBS_TOOLS = [
    (["obs", "slow", "t.jsonl"],
     {"--top": _int_option(-3, 1_000)},
     lambda args: args.top >= 1),
    (["obs", "diff", "a.jsonl", "b.jsonl"],
     {"--tolerance": _float_option(-2.0, 10.0)},
     lambda args: args.tolerance >= 0),
    (["obs", "watch", "ts.jsonl"],
     {"--interval": _float_option(-5.0, 60.0)},
     lambda args: args.interval > 0),
    (["obs", "timeline", "ts.jsonl"],
     {"--width": _int_option(-3, 500)},
     lambda args: args.width >= 1),
]


@given(st.sampled_from(_OBS_TOOLS).flatmap(
    lambda tool: st.tuples(st.just(tool), st.fixed_dictionaries(tool[1]))))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_obs_numeric_options_parse_or_exit_2(drawn):
    (command, _options, in_range), options = drawn
    argv = _argv(command, options)
    args = _parse_or_exit_2(argv)
    if args is not None:
        assert in_range(args), argv
