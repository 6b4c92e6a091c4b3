"""Span recording from outside the program, by wrapping public callables.

The benchmark never edits ``src/``.  It replaces a function or method
with a wrapper that records ``(name, start, end, parent)`` and calls
through, installed on the object the *caller* looks the name up on (a
module global, a class attribute, or a module a caller reaches through
``module.name``).  Spans are kept in memory and written out at the end.

Forked children inherit the installed wrappers.  An at-fork hook empties
the child's span list, so a child only writes what it recorded itself;
:meth:`SpanRecorder.flush_child` writes those spans together with the
child's own CPU time.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time

__all__ = ["SpanRecorder", "self_times", "percentile"]


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent_index, thread, tag]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Counts kept beside the spans (e.g. journal bytes).
        self.counters: dict[str, float] = {}
        self.root_pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tag(self) -> str:
        """The per-thread tag new spans carry (e.g. a request id)."""
        return getattr(self._local, "tag", "")

    def set_tag(self, tag: str) -> None:
        self._local.tag = tag

    def wrap(self, func, name: str):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1,
                    threading.get_ident(), recorder.tag()]
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def hook(self, owner, attr: str, after) -> None:
        """Call ``after(result, *args)`` once ``owner.attr`` returns."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._installed.append((owner, attr, original))

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result, *args)
            return result

        setattr(owner, attr, hooked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- children --------------------------------------------------------

    def flush_child(self, directory: str) -> None:
        """Write this (forked) process's spans and CPU time to a file."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        path = os.path.join(directory, f"child-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(),
                       "cpu_s": usage.ru_utime + usage.ru_stime,
                       "counters": self.counters,
                       "spans": self.spans}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            own[parent] -= span[2] - span[1]
    return own


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
