"""The long-lived filter-match serving daemon.

A stdlib-only (``http.server``) HTTP daemon serving match / verdict /
document-privilege requests over one frozen
:class:`~repro.filters.engine.EngineSnapshot`, with the robustness
layer the ROADMAP's "millions of users" north star actually needs:

* **Admission control** — every match request passes through the
  bounded :class:`~repro.serve.admission.AdmissionController`;
  overload sheds explicitly (HTTP 429/503 + ``Retry-After``), never
  queues without bound.
* **Deadline propagation** — each request carries a budget (the
  ``X-Repro-Deadline-Ms`` header, or the configured default) that is
  honoured while queued *and* inside the match path: a batch whose
  budget expires returns its completed prefix marked ``degraded``.
* **Epoch hot-reload** — ``POST /admin/reload`` builds the next
  snapshot in a background-safe :class:`~repro.serve.reload.Reloader`
  and swaps it atomically; a candidate that fails validation is
  rejected and the old epoch keeps serving.
* **Graceful drain** — SIGTERM stops admission, finishes in-flight
  requests, flushes observability exports, then exits.
* **Client-visible latency** — every connection runs with
  ``TCP_NODELAY``, so a keep-alive response is not held back by the
  client's delayed ACK, and ``serve.latency_ms`` times each served
  match from ``do_POST`` entry to the return of the response write.

Endpoints::

    POST /v1/match       one op or {"requests": [...]} batch
    POST /admin/reload   {"lists": [{"name":..., "text":...}]}
    GET  /healthz        liveness + epoch + reload state (always 200)
    GET  /readyz         200 only when serving and not draining
    GET  /metricz        the flat serve metrics view (JSON); append
                         ``?format=prometheus`` for text exposition

Responses are canonical JSON (:func:`repro.serve.protocol.encode`), so
daemon bytes can be compared against direct engine calls — the verdict
parity contract ``tests/serve`` and ``benchmarks/bench_serve.py``
enforce.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs

from repro.obs import OBS, WallClockTicker
from repro.obs.prometheus import render_prometheus_text
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.protocol import ProtocolError
from repro.serve.reload import Reloader, SnapshotHolder

__all__ = ["ServeConfig", "ServeDaemon"]


@dataclass(slots=True)
class ServeConfig:
    """Tunables for one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = pick a free port
    max_inflight: int = 8
    max_queue: int = 64
    default_deadline_ms: float = 1_000.0
    drain_timeout_s: float = 10.0
    #: Honour the ``X-Repro-Delay-Ms`` header (sleep before serving).
    #: Off by default; the drain/chaos tests and the load benchmark
    #: turn it on to create genuinely in-flight requests.
    allow_test_delay: bool = False
    #: The per-request latency SLO; served matches whose whole-request
    #: latency is over it burn ``serve.slo.burn{slo=latency}``.
    slo_latency_ms: float = 100.0
    #: Width of the rolling window behind ``serve.window.*`` gauges.
    window_s: float = 10.0
    #: Wall seconds between time-series samples (``--timeseries-out``).
    telemetry_interval_s: float = 1.0


class ServeDaemon:
    """One serving daemon: HTTP front, admission, reload, drain."""

    def __init__(self, holder: SnapshotHolder,
                 config: ServeConfig | None = None,
                 reloader: Reloader | None = None,
                 on_drained: Callable[[], None] | None = None) -> None:
        self.holder = holder
        self.config = config or ServeConfig()
        self.reloader = reloader or Reloader(holder)
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue)
        self.on_drained = on_drained
        self._server: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._drain_started = threading.Event()
        self._drained = threading.Event()
        self._stopped = threading.Event()
        # Rolling-window state behind the serve.window.* gauges: the
        # last window_s seconds of (finish time, latency) pairs and
        # shed timestamps, evicted lazily on each update.
        self._window_lock = threading.Lock()
        self._window_latencies: deque[tuple[float, float]] = deque()
        self._window_sheds: deque[float] = deque()
        self._ticker: WallClockTicker | None = None
        self._telemetry_flushed = False

    # -- lifecycle -----------------------------------------------------

    def _prime_metrics(self) -> None:
        """Create the serving metric families before the first request.

        A scrape of a freshly booted daemon must already expose the
        request-latency histogram, every shed-reason counter, and the
        reload-epoch gauge — dashboards and the Prometheus-format smoke
        test key on family *presence*, not just values.
        """
        if not OBS.enabled:
            return
        OBS.registry.histogram("serve.latency_ms")
        for reason in ("queue-full", "deadline-hopeless",
                       "deadline-in-queue", "draining"):
            OBS.registry.counter("serve.admission.shed", reason=reason)
        OBS.registry.gauge("serve.reload.epoch").set(
            self.holder.current().epoch)
        OBS.registry.gauge("serve.window.latency_p95_ms").set(0.0)
        OBS.registry.gauge("serve.window.qps").set(0.0)
        OBS.registry.gauge("serve.window.shed_rate").set(0.0)
        OBS.registry.counter("serve.slo.burn", slo="latency")

    def _start_telemetry(self) -> None:
        """Own a wall-clock sampling ticker when a sampler is wired in."""
        if OBS.timeseries.enabled and self._ticker is None:
            self._ticker = WallClockTicker(
                OBS.timeseries,
                interval_s=self.config.telemetry_interval_s)
            self._ticker.start()

    def _flush_telemetry(self) -> None:
        """Drain-time flush: final sample, sealed exporter, flight dump.

        Runs exactly once, so a drain raced against ``stop()`` can never
        write a torn telemetry tail — the SIGTERM chaos test asserts the
        exports verify strictly afterwards.
        """
        if self._telemetry_flushed:
            return
        self._telemetry_flushed = True
        if self._ticker is not None:
            self._ticker.stop()
            self._ticker = None
        if OBS.timeseries.enabled:
            OBS.timeseries.sample_wall()
            OBS.timeseries.close()
        OBS.flight.record("serve.drain", drained=self._drained.is_set())
        OBS.flight.dump(reason="drain")

    def _make_server(self) -> ThreadingHTTPServer:
        daemon = self

        class Handler(_ServeHandler):
            serve_daemon = daemon

        server = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler)
        server.daemon_threads = True
        return server

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        assert self._server is not None, "daemon not started"
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Bind and serve in a background thread (tests, benchmarks)."""
        self._prime_metrics()
        self._start_telemetry()
        self._server = self._make_server()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve", daemon=True)
        self._serve_thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (the CLI path)."""
        self._prime_metrics()
        self._start_telemetry()
        self._server = self._make_server()
        self._server.serve_forever()

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        """Block until :meth:`stop` completes (the CLI's park point)."""
        return self._stopped.wait(timeout_s)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (callable from main thread)."""

        def _on_signal(signum, _frame) -> None:
            # Handlers must return promptly; the drain runs elsewhere.
            threading.Thread(target=self.drain_and_stop,
                             name="repro-serve-drain",
                             daemon=True).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def begin_drain(self) -> None:
        """Step 1 of shutdown: refuse new work, keep finishing old."""
        if self._drain_started.is_set():
            return
        self._drain_started.set()
        self.admission.begin_drain()

    def drain_and_stop(self) -> bool:
        """The full SIGTERM sequence; True when in-flight work finished.

        Stop admitting → wait (bounded) for in-flight requests → flush
        observability exports via ``on_drained`` → stop the listener.
        Every step runs even when a timeout forces an early exit, so
        the process always ends in a reportable state.
        """
        self.begin_drain()
        clean = self.admission.drained(self.config.drain_timeout_s)
        self._drained.set()
        if OBS.enabled:
            OBS.registry.counter(
                "serve.drains", clean=str(clean).lower()).inc()
        if self.on_drained is not None:
            self.on_drained()
        self._flush_telemetry()
        self.stop()
        return clean

    def stop(self) -> None:
        """Tear down the listener (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._ticker is not None:
            # A direct stop (no drain) must still not leak the sampling
            # thread; the full flush stays on the drain path.
            self._ticker.stop()
            self._ticker = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)

    @property
    def draining(self) -> bool:
        return self._drain_started.is_set()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    # -- request handling (called from handler threads) ----------------

    def handle_match(self, body: bytes,
                     deadline_ms: float | None,
                     test_delay_s: float = 0.0) -> tuple[int, dict, dict]:
        """The whole match path: admission → parse → serve → outcome.

        Returns ``(status, body, headers)``; every path through here
        yields exactly one explicit outcome.  ``test_delay_s`` (the
        ``X-Repro-Delay-Ms`` header, gated on
        :attr:`ServeConfig.allow_test_delay`) stretches the in-slot
        service time so tests can create genuinely in-flight requests.
        Request latency is not observed here: the handler times the
        whole request, socket read and write included
        (:meth:`note_served`).
        """
        start = time.monotonic()
        budget_ms = (deadline_ms if deadline_ms is not None
                     else self.config.default_deadline_ms)
        deadline_s = start + budget_ms / 1000.0
        decision = self.admission.admit(deadline_s)
        if not decision.admitted:
            self._note_shed(time.monotonic())
            status, payload = protocol.shed(
                decision.reason or "shed",
                retry_after=decision.retry_after,
                draining=decision.draining)
            return status, payload, {
                "Retry-After": f"{max(0.05, decision.retry_after):.3f}"}
        try:
            if test_delay_s > 0.0:
                time.sleep(test_delay_s)
            try:
                requests = protocol.parse_match_payload(body)
            except ProtocolError as exc:
                self._count_outcome("error")
                return (*protocol.error(str(exc)), {})
            snapshot = self.holder.current()
            outcome, payload = protocol.serve_match(
                snapshot, requests,
                deadline_expired=lambda: time.monotonic() >= deadline_s)
            self._count_outcome(outcome)
            return 200, payload, {}
        finally:
            self.admission.release(decision,
                                   service_s=time.monotonic() - start)

    def handle_reload(self, body: bytes) -> tuple[int, dict]:
        try:
            document = json.loads(body.decode("utf-8"))
            lists = document["lists"]
            sources = [(item["name"], item["text"]) for item in lists]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return 400, {"status": "error",
                         "error": "body must be {'lists': "
                                  "[{'name':..., 'text':...}]}"}
        result = self.reloader.reload(sources)
        status = 200 if result.status == "swapped" else 409
        return status, {"status": result.status, "epoch": result.epoch,
                        "filters": result.filters, "error": result.error}

    def health(self) -> dict:
        snapshot = self.holder.current()
        return {
            "status": "ok",
            "epoch": snapshot.epoch,
            "filters": snapshot.filter_count,
            "compiled": snapshot.compiled_stats(),
            "draining": self.draining,
            "reload": self.reloader.state(),
        }

    def metrics(self) -> dict:
        if OBS.enabled:
            return dict(OBS.registry.flat())
        return {}

    @staticmethod
    def _count_outcome(outcome: str) -> None:
        if OBS.enabled:
            OBS.registry.counter("serve.outcomes", outcome=outcome).inc()

    # -- rolling-window gauges (serve.window.*) ------------------------

    def note_served(self, started: float) -> None:
        """Observe one served match request that began at ``started``.

        ``started`` is the handler's ``time.monotonic()`` at
        ``do_POST`` entry, and this runs once the response write has
        returned, so ``serve.latency_ms`` spans body read, admission,
        parse, match, encode and socket write.  Shed and malformed
        requests are not observed.
        """
        if not OBS.enabled:
            return
        finished = time.monotonic()
        latency_ms = (finished - started) * 1000.0
        OBS.registry.histogram("serve.latency_ms").observe(latency_ms)
        if latency_ms > self.config.slo_latency_ms:
            OBS.registry.counter("serve.slo.burn", slo="latency").inc()
        with self._window_lock:
            self._window_latencies.append((finished, latency_ms))
            self._refresh_window(finished)

    def _note_shed(self, now: float) -> None:
        if not OBS.enabled:
            return
        with self._window_lock:
            self._window_sheds.append(now)
            self._refresh_window(now)

    def _refresh_window(self, now: float) -> None:
        """Evict expired samples and republish the window gauges.

        Caller holds ``_window_lock``.  The histogram in
        ``serve.latency_ms`` is cumulative-forever; these gauges answer
        the operator's *live* question — "what is p95 / qps / shed rate
        right now" — over the last :attr:`ServeConfig.window_s` seconds.
        """
        horizon = now - self.config.window_s
        latencies = self._window_latencies
        while latencies and latencies[0][0] < horizon:
            latencies.popleft()
        sheds = self._window_sheds
        while sheds and sheds[0] < horizon:
            sheds.popleft()
        served = len(latencies)
        if served:
            ordered = sorted(sample for _, sample in latencies)
            p95 = ordered[min(served - 1, int(0.95 * served))]
        else:
            p95 = 0.0
        total = served + len(sheds)
        OBS.registry.gauge("serve.window.latency_p95_ms").set(
            round(p95, 3))
        OBS.registry.gauge("serve.window.qps").set(
            round(total / self.config.window_s, 3))
        OBS.registry.gauge("serve.window.shed_rate").set(
            round(len(sheds) / total, 4) if total else 0.0)


class _ServeHandler(BaseHTTPRequestHandler):
    """Routes HTTP traffic into the daemon (one instance per request)."""

    serve_daemon: ServeDaemon  # injected by ServeDaemon._make_server
    protocol_version = "HTTP/1.1"
    # ``StreamRequestHandler.setup()`` sets TCP_NODELAY.  A response
    # leaves as two writes (headers, then body); with Nagle on, the
    # body waits for the client's delayed ACK of the headers, which
    # costs every keep-alive request ~40 ms.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; a serving
    # daemon under load must not.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              headers: dict | None = None) -> None:
        """Write one response: the only writer of this handler."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client gave up; the outcome was still computed and
            # counted — nothing hangs, nothing is silently dropped.
            if OBS.enabled:
                OBS.registry.counter("serve.client_aborts").inc()

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        self._send(status, protocol.encode(payload), headers=headers)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` once a 400 has been sent.

        A ``Content-Length`` that is not a non-negative integer leaves
        the rest of the stream unframed, so the reply also closes the
        connection (``Connection: close`` sets ``close_connection``).
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(*protocol.error(
                "Content-Length must be a non-negative integer"),
                {"Connection": "close"})
            return None
        return self.rfile.read(length) if length else b""

    def _deadline_ms(self) -> float | None:
        """The ``X-Repro-Deadline-Ms`` budget, ``None`` when absent.

        Raises ``ValueError`` unless the header is a finite number
        above zero: ``inf`` would overflow the admission wait and
        ``nan`` would never expire.
        """
        header = self.headers.get("X-Repro-Deadline-Ms")
        if not header:
            return None
        value = float(header)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(header)
        return value

    def _test_delay_s(self) -> float:
        if not self.serve_daemon.config.allow_test_delay:
            return 0.0
        delay_ms = self.headers.get("X-Repro-Delay-Ms")
        try:
            return max(0.0, float(delay_ms)) / 1000.0 if delay_ms else 0.0
        except ValueError:
            return 0.0

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        daemon = self.serve_daemon
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(200, daemon.health())
        elif path == "/readyz":
            if daemon.draining:
                self._send_json(503, {"status": "draining"},
                                {"Retry-After": "1"})
            else:
                self._send_json(200, {"status": "ready",
                                      "epoch": daemon.holder.current().epoch})
        elif path == "/metricz":
            # JSON stays the default (existing scrapers grep it); the
            # Prometheus text exposition is opt-in per scrape.
            wanted = parse_qs(query).get("format", ["json"])[-1]
            if wanted == "prometheus":
                text = (render_prometheus_text(OBS.registry)
                        if OBS.enabled else "")
                self._send(200, text.encode("utf-8"),
                           "text/plain; version=0.0.4")
            else:
                self._send_json(200, daemon.metrics())
        else:
            self._send_json(*protocol.error(f"no such path {self.path!r}",
                                            status=404))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        started = time.monotonic()
        daemon = self.serve_daemon
        if OBS.enabled:
            OBS.registry.counter("serve.requests",
                                 route=self.path).inc()
        # Every route reads its body before answering, so a refused
        # request leaves the keep-alive stream framed for the next one.
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/match":
            try:
                deadline_ms = self._deadline_ms()
            except ValueError:
                self._send_json(*protocol.error(
                    "X-Repro-Deadline-Ms must be a finite number > 0"))
                return
            status, payload, headers = daemon.handle_match(
                body, deadline_ms, test_delay_s=self._test_delay_s())
            self._send_json(status, payload, headers)
            if status == 200:
                daemon.note_served(started)
        elif self.path == "/admin/reload":
            if daemon.draining:
                self._send_json(503, {"status": "draining"},
                                {"Retry-After": "1"})
                return
            status, payload = daemon.handle_reload(body)
            self._send_json(status, payload)
        else:
            self._send_json(*protocol.error(f"no such path {self.path!r}",
                                            status=404))
