"""Time-series sampling: periodic snapshots of the metrics registry.

Export-at-end observability (PR 2/PR 5) answers "where did the time
go?" after a run finishes; this module answers "where is it going *right
now*?" for the hours-long survey and serving workloads.  A
:class:`TimeSeriesSampler` snapshots the flat metric view on periodic
*ticks* and streams one ``{"type": "sample", ...}`` record per tick
through a :class:`repro.obs.export.RotatingJsonlExporter`.

Two clocks, two channels
------------------------

Ticks come from one of two clocks, and the distinction is what keeps
the byte-identity contract intact:

* **Simulated clock** (:meth:`TimeSeriesSampler.advance`): survey and
  history runs advance the sampler by each unit's *simulated* latency,
  accumulated in global unit order — the same order metric snapshots
  are merged in.  Tick boundaries are therefore a pure function of the
  workload, so the main time-series export is **byte-identical at any
  worker count and under any kill schedule**.
* **Wall clock** (:meth:`TimeSeriesSampler.sample_wall`): ``repro
  serve`` has no simulated clock, so a background
  :class:`WallClockTicker` thread samples on real elapsed time.  Those
  exports are honest about being nondeterministic.

Execution-placement telemetry (worker liveness, lease backlog — the
``OBS.diagnostics`` registry) is *never* deterministic, so it goes to a
separate ``<path>.diag`` sidecar stream via
:meth:`TimeSeriesSampler.sample_diagnostics`, rate-limited on the wall
clock.  The main segments stay byte-identical; the sidecar carries the
worker table ``repro obs watch`` renders.

:class:`ProgressTracker` is the producer shim survey paths use: it
maintains ``run.progress.*`` gauges (done/total/elapsed/ETA per stage)
in the *result* registry and drives :meth:`advance` with per-unit
latencies.  The gauges are written whenever metrics are enabled —
with or without a time-series sink — so ``--metrics-out`` artifacts
remain byte-identical whether or not telemetry rides along.

>>> from repro.obs.export import InMemoryTimeSeries
>>> sink = InMemoryTimeSeries()
>>> from repro.obs.metrics import MetricsRegistry
>>> registry = MetricsRegistry()
>>> registry.counter("demo.units").inc()
>>> sampler = TimeSeriesSampler(sink, interval_s=1.0, registry=registry)
>>> sampler.advance(2.5)   # crosses two tick boundaries
2
>>> [record["t_s"] for record in sink.records]
[1.0, 2.0]
>>> sink.records[0]["metrics"]
{'demo.units': 1}
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = [
    "TimeSeriesSampler",
    "NullTimeSeries",
    "NULL_TIMESERIES",
    "ProgressTracker",
    "WallClockTicker",
    "DEFAULT_TICK_INTERVAL_S",
]

#: Default simulated/wall seconds between samples.
DEFAULT_TICK_INTERVAL_S = 1.0

#: Guards float accumulation: ``0.1 * 10`` must still cross the
#: ``1.0`` tick boundary.
_TICK_EPSILON = 1e-9


class TimeSeriesSampler:
    """Snapshots a registry's flat view on tick boundaries.

    ``exporter`` is any object with ``write(record)`` and ``close()``
    (in practice :class:`repro.obs.export.RotatingJsonlExporter` or
    :class:`repro.obs.export.InMemoryTimeSeries`).  ``registry`` pins
    the sampled registry; when ``None`` each sample reads the *current*
    ``OBS.registry``, which is what the CLI wants — ``observe()`` swaps
    registries around each command.

    The sampler only ever **reads** the registry, so enabling it cannot
    perturb metric exports.
    """

    enabled = True

    def __init__(self, exporter, *,
                 interval_s: float = DEFAULT_TICK_INTERVAL_S,
                 registry=None,
                 diagnostics_exporter=None,
                 diagnostics_min_wall_s: float = 0.25,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive: {interval_s}")
        self.exporter = exporter
        self.interval_s = interval_s
        self.registry = registry
        self.diagnostics_exporter = diagnostics_exporter
        self.diagnostics_min_wall_s = diagnostics_min_wall_s
        self.clock = clock
        self.closed = False
        self._tick = 0                  # ticks emitted so far
        self._sim_elapsed = 0.0         # simulated seconds advanced
        self._wall_start: float | None = None
        self._last_diag_wall: float | None = None
        self._lock = threading.Lock()

    # -- sampling -----------------------------------------------------

    def advance(self, delta_s: float) -> int:
        """Advance the simulated clock; emit one sample per tick crossed.

        Returns the number of samples emitted.  Callers accumulate
        deltas in global unit order (the scheduler's flush order), so
        tick boundaries — and therefore the exported byte stream — are
        identical at any worker count.
        """
        if self.closed or delta_s <= 0:
            return 0
        emitted = 0
        with self._lock:
            self._sim_elapsed += delta_s
            # One advance may cross several ticks, but the registry
            # cannot change between them — snapshot once, reuse for
            # every sample this call emits.
            snapshot: dict | None = None
            while ((self._tick + 1) * self.interval_s
                   <= self._sim_elapsed + _TICK_EPSILON):
                self._tick += 1
                if snapshot is None:
                    snapshot = self._flat_view()
                self._emit(self._tick,
                           round(self._tick * self.interval_s, 6),
                           metrics=snapshot)
                emitted += 1
        return emitted

    def sample_wall(self) -> None:
        """Emit one sample stamped with wall-clock elapsed seconds.

        The serving daemon's :class:`WallClockTicker` drives this; the
        tick counter is shared with :meth:`advance` so mixed use still
        yields a monotonic tick sequence.
        """
        if self.closed:
            return
        with self._lock:
            now = self.clock()
            if self._wall_start is None:
                self._wall_start = now
            self._tick += 1
            self._emit(self._tick, round(now - self._wall_start, 6))

    def sample_diagnostics(self) -> None:
        """Snapshot ``OBS.diagnostics`` to the sidecar stream.

        Rate-limited on the wall clock (``diagnostics_min_wall_s``)
        because callers invoke it opportunistically from scheduler poll
        loops.  A no-op without a sidecar exporter.
        """
        if self.closed or self.diagnostics_exporter is None:
            return
        from repro.obs import OBS
        if not OBS.diagnostics.enabled:
            return
        with self._lock:
            now = self.clock()
            if (self._last_diag_wall is not None
                    and now - self._last_diag_wall
                    < self.diagnostics_min_wall_s):
                return
            self._last_diag_wall = now
            if self._wall_start is None:
                self._wall_start = now
            self.diagnostics_exporter.write({
                "type": "sample",
                "tick": self._tick,
                "t_s": round(now - self._wall_start, 6),
                "metrics": OBS.diagnostics.flat(),
            })

    def _flat_view(self) -> dict:
        registry = self.registry
        if registry is None:
            from repro.obs import OBS
            registry = OBS.registry
        return registry.flat()

    def _emit(self, tick: int, t_s: float,
              metrics: dict | None = None) -> None:
        self.exporter.write({
            "type": "sample",
            "tick": tick,
            "t_s": t_s,
            "metrics": self._flat_view() if metrics is None else metrics,
        })

    # -- lifecycle ----------------------------------------------------

    @property
    def samples_emitted(self) -> int:
        return self._tick

    def close(self) -> None:
        """Footer and close both streams (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.exporter.close()
        if self.diagnostics_exporter is not None:
            self.diagnostics_exporter.close()


class NullTimeSeries:
    """The disabled sampler: every method is a no-op."""

    enabled = False
    closed = True
    samples_emitted = 0

    def advance(self, delta_s: float) -> int:
        return 0

    def sample_wall(self) -> None:
        pass

    def sample_diagnostics(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TIMESERIES = NullTimeSeries()


class ProgressTracker:
    """Stage progress gauges + simulated-clock ticks, one per survey stage.

    Writes four gauges into the *result* registry (so they export with
    ``--metrics-out`` and show up in every time-series sample)::

        run.progress.units_total{stage=...}
        run.progress.units_done{stage=...}
        run.progress.elapsed_s{stage=...}   # simulated seconds
        run.progress.eta_s{stage=...}       # naive linear projection

    and advances ``OBS.timeseries`` by each unit's simulated latency.
    All arithmetic is per-unit floats accumulated in the caller's merge
    order, which the survey executor performs in global unit order at
    every worker count — the byte-identity contract's load-bearing
    detail.

    ``done`` may start nonzero for resumed runs (restored units are
    counted as done but contribute no simulated time, mirroring how
    restored units never re-merge their metrics).
    """

    __slots__ = ("stage", "total", "done", "elapsed_s")

    def __init__(self, stage: str, total: int, done: int = 0) -> None:
        self.stage = stage
        self.total = total
        self.done = done
        self.elapsed_s = 0.0
        self._publish()

    def step(self, latency_ms: float = 0.0) -> None:
        """Record one finished unit with its simulated latency."""
        self.done += 1
        delta_s = latency_ms / 1000.0
        self.elapsed_s += delta_s
        self._publish()
        from repro.obs import OBS
        OBS.timeseries.advance(delta_s)

    def _publish(self) -> None:
        from repro.obs import OBS
        registry = OBS.registry
        if not registry.enabled:
            return
        stage = self.stage
        registry.gauge("run.progress.units_total", stage=stage).set(
            self.total)
        registry.gauge("run.progress.units_done", stage=stage).set(
            self.done)
        registry.gauge("run.progress.elapsed_s", stage=stage).set(
            round(self.elapsed_s, 6))
        remaining = max(self.total - self.done, 0)
        eta = (self.elapsed_s / self.done * remaining
               if self.done else 0.0)
        registry.gauge("run.progress.eta_s", stage=stage).set(
            round(eta, 6))


class WallClockTicker:
    """Background thread driving wall-clock samples (``repro serve``).

    Calls ``sampler.sample_wall()`` and ``sampler.sample_diagnostics()``
    every ``interval_s`` real seconds until :meth:`stop`.  The thread is
    a daemon, so a hard kill never hangs shutdown; a graceful drain
    calls :meth:`stop` first so the final footer lands.
    """

    def __init__(self, sampler: TimeSeriesSampler, *,
                 interval_s: float = DEFAULT_TICK_INTERVAL_S) -> None:
        self.sampler = sampler
        self.interval_s = interval_s
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="obs-wall-ticker", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.sampler.sample_wall()
            self.sampler.sample_diagnostics()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
