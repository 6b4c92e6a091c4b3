"""``repro.serve`` — the resilient filter-match serving daemon.

The study pipeline answers questions in batch; this package serves the
same verdicts online.  One frozen
:class:`~repro.filters.engine.EngineSnapshot` (compiled filters,
indices, memo caches — immutable, shareable across request threads)
backs a stdlib-only HTTP daemon with the robustness layer a long-lived
process needs:

* :mod:`repro.serve.protocol` — the wire protocol: request parsing,
  the four explicit outcomes (served / degraded / shed / error), and
  the canonical byte encoding the verdict-parity contract compares.
* :mod:`repro.serve.admission` — bounded admission queue with
  deadline-aware load shedding; overload is an explicit 429/503 with
  ``Retry-After``, never unbounded queueing.
* :mod:`repro.serve.reload` — epoch-keyed hot reload: build the
  candidate off the serving path, validate before swapping, swap
  atomically, roll back (keep the old epoch) on any failure.
* :mod:`repro.serve.daemon` — the HTTP front (``repro serve``):
  ``/v1/match``, ``/admin/reload``, ``/healthz``, ``/readyz``,
  ``/metricz``, plus graceful SIGTERM drain.
* :mod:`repro.serve.chaos` — the attack harness: seeded hostile
  clients (reusing :class:`~repro.web.faults.FaultPlan`) and reloader
  kills (reusing :class:`~repro.state.crashpoints.CrashInjector`),
  with total outcome accounting.

>>> from repro.serve import SnapshotHolder, ServeDaemon, ServeConfig
>>> holder = SnapshotHolder.from_sources([("easylist", "||ads.example^")])
>>> daemon = ServeDaemon(holder, ServeConfig(max_inflight=2))
>>> status, body, _headers = daemon.handle_match(
...     b'{"url": "http://ads.example/x.js", "content_type": "script",'
...     b' "page_host": "news.example", "request_host": "ads.example"}',
...     deadline_ms=1000.0)
>>> status, body["outcome"], body["results"][0]["verdict"]
(200, 'served', 'block')
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".admission": ("AdmissionController", "AdmissionDecision"),
    ".chaos": (
        "ChaosReport", "kill_reloader", "run_chaos_clients", "wedge_reloader",
    ),
    ".daemon": ("ServeConfig", "ServeDaemon"),
    ".protocol": (
        "MatchRequest", "ProtocolError", "parse_match_payload", "serve_match",
    ),
    ".reload": (
        "ReloadError", "Reloader", "ReloadResult", "SnapshotHolder",
        "build_snapshot_from_sources", "validate_sources",
    ),
})
