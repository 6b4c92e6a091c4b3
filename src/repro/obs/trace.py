"""Nested timing spans: where a pipeline run actually spends its time.

A :class:`Tracer` records :class:`Span` objects — named, attributed
timing intervals.  Spans nest lexically (a context-manager stack), so a
survey trace reads like a call tree::

    survey.run
      survey.build_samples
      survey.build_engines        config=easylist+whitelist
      survey.crawl.parallel       config=easylist+whitelist
        web.crawl.visit           domain=google.com unit=0
        ...

Spans are recorded in *start* order with an explicit ``depth`` and a
deterministic ``span_id``/``parent_id`` pair (:mod:`repro.obs.ids`), so
an exporter can reconstruct the tree either positionally (depth +
order) or by ID — the latter survives shuffling and cross-process
stitching.

>>> tracer = Tracer(clock=iter(range(10)).__next__)
>>> with tracer.span("outer"):
...     with tracer.span("inner", step=1):
...         pass
>>> [(s.name, s.depth, s.duration) for s in tracer.spans]
[('outer', 0, 3), ('inner', 1, 1)]
>>> tracer.spans[1].parent_id == tracer.spans[0].span_id
True

A tracer may be *rooted* under a foreign parent context: the
shared-nothing survey executor gives each crawl unit a private tracer
rooted at the parent process's ``survey.crawl.parallel`` span, with the
unit's global index as its root ordinal namespace.  Two different
workers (or the same worker on resume) therefore derive identical IDs
for the same unit, which is what lets :meth:`Tracer.adopt` stitch shard
traces back into one coherent tree in the parent.

The :data:`NULL_TRACER` is the disabled twin: its ``span()`` hands back
one shared no-op context manager, so un-guarded ``with tracer.span(...)``
sites cost two method calls and allocate nothing when tracing is off.

>>> with NULL_TRACER.span("ignored") as span:
...     pass
>>> NULL_TRACER.spans
[]
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.ids import ROOT_PARENT_ID, derive_span_id

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One named timing interval with structured attributes.

    Use as a context manager via :meth:`Tracer.span`; ``duration`` is
    ``None`` until the span exits (exporters skip unfinished spans).
    ``span_id`` and ``parent_id`` are assigned on entry — they are
    deterministic functions of the span's tree position, never of time
    or process identity.
    """

    __slots__ = ("name", "attrs", "start", "duration", "depth",
                 "span_id", "parent_id", "_children", "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start: float = 0.0
        self.duration: float | None = None
        self.depth: int = 0
        self.span_id: str = ""
        self.parent_id: str = ROOT_PARENT_ID
        self._children: int = 0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            ordinal: int | str = parent._children
            parent._children += 1
        else:
            self.parent_id = tracer.root_parent_id
            ordinal = f"{tracer.root_ordinal_ns}{tracer._root_children}"
            tracer._root_children += 1
        self.depth = tracer.root_depth + len(stack)
        self.span_id = derive_span_id(self.parent_id, self.name, ordinal)
        stack.append(self)
        tracer.spans.append(self)
        self.start = tracer._clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        self.duration = tracer._clock() - self.start
        tracer._stack.pop()
        return False

    @property
    def duration_ms(self) -> float:
        return (self.duration or 0.0) * 1000.0

    def set_attr(self, key: str, value: object) -> None:
        """Attach an attribute discovered mid-span (e.g. a result count)."""
        self.attrs[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"depth={self.depth}, duration={self.duration}, "
                f"attrs={self.attrs})")


class Tracer:
    """Collects spans on a context-manager stack.

    ``clock`` is any zero-argument callable returning seconds; the
    default is :func:`time.perf_counter`.  Tests inject a counting clock
    for deterministic durations; the shared-nothing executor injects the
    crawl's *simulated* clock, whose readings are deterministic by
    construction.

    ``root_parent_id``/``root_depth``/``root_ordinal_ns`` root the
    tracer under a foreign parent span — see the module docstring.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 *, root_parent_id: str = ROOT_PARENT_ID,
                 root_depth: int = 0, root_ordinal_ns: str = "") -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock
        self.root_parent_id = root_parent_id
        self.root_depth = root_depth
        self.root_ordinal_ns = root_ordinal_ns
        self._root_children = 0

    def span(self, name: str, **attrs: object) -> Span:
        """A new span, to be entered with ``with``."""
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def finished_spans(self) -> list[Span]:
        """Spans that have exited, in start order."""
        return [span for span in self.spans if span.duration is not None]

    def adopt(self, records: list[dict]) -> None:
        """Graft exported span records into this tracer as finished spans.

        ``records`` are :func:`repro.obs.export.span_records` dicts —
        typically a crawl unit's span shard sent home by a pool worker.
        Their IDs, depths, and timings are taken verbatim (they were
        derived under this tracer's own span context, so they already
        cohere with the live tree); transport-only keys (``worker``)
        are dropped, because a merged trace is execution-independent.
        """
        for record in records:
            span = Span(self, record["name"], dict(record["attrs"]))
            span.span_id = record["span_id"]
            span.parent_id = record["parent_id"]
            span.depth = record["depth"]
            span.start = record["start_s"]
            span.duration = record["duration_ms"] / 1000.0
            self.spans.append(span)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._root_children = 0


class _NullSpan:
    """The shared no-op span the null tracer hands out."""

    __slots__ = ()
    name = ""
    attrs: dict[str, object] = {}
    depth = 0
    start = 0.0
    duration: float | None = None
    duration_ms = 0.0
    span_id = ""
    parent_id = ROOT_PARENT_ID

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set_attr(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing."""

    enabled = False

    def span(self, name: str, **attrs: object):  # type: ignore[override]
        return _NULL_SPAN


NULL_TRACER = NullTracer()
