"""Property test: ``repro survey``'s numeric options never crash the CLI.

Hypothesis drives :func:`repro.cli.main` in-process over the survey's
numeric options with values in and out of range, plus text that is no
number at all.  Every call must end in exit 0 (it ran), 1 or 2 (a usage
error), with no traceback, inside a per-call time cap.

The draws stay small on purpose: ``--top`` at most 20, ``--stratum`` at
most 5, and never more than 2 ``--workers``, so no draw starts more than
two processes or a long crawl.
"""

import contextlib
import io
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

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


@given(st.fixed_dictionaries(_SIZES, optional=_OPTIONAL))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_survey_options_exit_cleanly(options):
    """Any other exception, or the time cap, propagates and fails."""
    argv = ["survey", "--fast"] + [f"{flag}={value}"
                                   for flag, value in options.items()]
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
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
