"""The live daemon over real HTTP: parity, shedding, drain, health.

These tests exercise the acceptance criteria end to end against a
real ``ThreadingHTTPServer`` on a loopback port: daemon response bytes
are compared against direct engine calls (before a reload, after a
reload to the same epoch, and after a rolled-back failed reload), an
overloaded daemon sheds with 429 + Retry-After, and a draining daemon
finishes in-flight work while refusing new work with 503.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.obs import (
    FlightRecorder,
    RotatingJsonlExporter,
    TimeSeriesSampler,
    observe,
)
from repro.obs.analyze import load_flight, load_timeseries
from repro.obs.prometheus import parse_prometheus_text
from repro.serve import (
    Reloader,
    ServeConfig,
    ServeDaemon,
    SnapshotHolder,
    protocol,
)
from repro.serve.protocol import parse_match_payload, serve_match

SOURCES = [
    ("easylist", "||ads.example^\n||track.example^$third-party"),
    ("exceptionrules", "@@||ads.example^$domain=friendly.example"),
]
MATCH = {"url": "http://ads.example/a.js", "content_type": "script",
         "page_host": "news.example", "request_host": "ads.example"}


def request(daemon, method, path, body=None, headers=None,
            timeout=30.0):
    host, port = daemon.address
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            method, path,
            body=json.dumps(body).encode() if body is not None else None,
            headers=headers or {})
        response = connection.getresponse()
        return response.status, response.read(), dict(
            response.getheaders())
    finally:
        connection.close()


@pytest.fixture
def daemon():
    holder = SnapshotHolder.from_sources(SOURCES)
    instance = ServeDaemon(
        holder,
        ServeConfig(port=0, max_inflight=1, max_queue=0,
                    default_deadline_ms=5_000.0, drain_timeout_s=10.0,
                    allow_test_delay=True),
        reloader=Reloader(holder))
    instance.start()
    yield instance
    instance.stop()


def expected_bytes(daemon, payload: dict) -> bytes:
    """What the daemon *must* answer: the direct engine result."""
    _, body = serve_match(daemon.holder.current(),
                          parse_match_payload(json.dumps(payload).encode()))
    return protocol.encode(body)


class TestParity:
    def test_daemon_bytes_equal_direct_engine_bytes(self, daemon):
        status, raw, _ = request(daemon, "POST", "/v1/match", MATCH)
        assert status == 200
        assert raw == expected_bytes(daemon, MATCH)

    def test_parity_holds_after_reload_to_same_epoch(self, daemon):
        epoch = daemon.holder.current().epoch
        before = request(daemon, "POST", "/v1/match", MATCH)[1]
        status, raw, _ = request(
            daemon, "POST", "/admin/reload",
            {"lists": [{"name": n, "text": t} for n, t in SOURCES]})
        reload_body = json.loads(raw)
        assert (status, reload_body["status"]) == (200, "swapped")
        assert reload_body["epoch"] == epoch
        after = request(daemon, "POST", "/v1/match", MATCH)[1]
        assert after == before == expected_bytes(daemon, MATCH)

    def test_parity_holds_after_rolled_back_failed_reload(self, daemon):
        before = request(daemon, "POST", "/v1/match", MATCH)[1]
        status, raw, _ = request(
            daemon, "POST", "/admin/reload",
            {"lists": [{"name": "easylist", "text": "! empty\n"}]})
        assert status == 409
        assert json.loads(raw)["status"] == "rejected"
        after = request(daemon, "POST", "/v1/match", MATCH)[1]
        assert after == before == expected_bytes(daemon, MATCH)

    def test_successful_reload_changes_the_serving_epoch(self, daemon):
        epoch = daemon.holder.current().epoch
        status, raw, _ = request(
            daemon, "POST", "/admin/reload",
            {"lists": [{"name": "easylist",
                        "text": "||ads.example^\n||brand-new.example^"}]})
        assert status == 200
        assert json.loads(raw)["epoch"] != epoch
        served = json.loads(request(daemon, "POST", "/v1/match",
                                    MATCH)[1])
        assert served["epoch"] == json.loads(raw)["epoch"]


class TestShedding:
    def test_overload_sheds_429_with_retry_after(self, daemon):
        release = threading.Event()
        results = []

        def occupant():
            results.append(request(
                daemon, "POST", "/v1/match", MATCH,
                headers={"X-Repro-Delay-Ms": "1500"}))

        thread = threading.Thread(target=occupant)
        thread.start()
        # Wait for the occupant to actually hold the slot.
        for _ in range(100):
            if daemon.admission.inflight == 1:
                break
            threading.Event().wait(0.02)
        status, raw, headers = request(daemon, "POST", "/v1/match", MATCH)
        thread.join(timeout=30.0)
        release.set()
        assert status == 429
        shed = json.loads(raw)
        assert shed["outcome"] == "shed"
        assert shed["reason"] == "queue-full"
        assert float(headers["Retry-After"]) > 0.0
        assert results[0][0] == 200    # the occupant still completed

    def test_hopeless_deadline_is_shed_or_degraded_never_hung(
            self, daemon):
        status, raw, _ = request(
            daemon, "POST", "/v1/match",
            {"requests": [MATCH, MATCH]},
            headers={"X-Repro-Deadline-Ms": "0.001"})
        body = json.loads(raw)
        assert (status, body["outcome"]) in (
            (200, "degraded"), (429, "shed"))

    def test_bad_deadline_header_is_400(self, daemon):
        status, raw, _ = request(daemon, "POST", "/v1/match", MATCH,
                                 headers={"X-Repro-Deadline-Ms": "soon"})
        assert status == 400
        assert json.loads(raw)["outcome"] == "error"

    def test_malformed_body_is_400(self, daemon):
        status, raw, _ = request(daemon, "POST", "/v1/match",
                                 {"op": "check_request"})
        assert status == 400
        assert json.loads(raw)["outcome"] == "error"


    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_is_400_and_closes(self, daemon, length):
        # The socket timeout bounds the test if the daemon never replies.
        with socket.create_connection(daemon.address, timeout=5.0) as sock:
            sock.sendall(f"POST /v1/match HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            while chunk := sock.recv(65536):    # EOF: the daemon hung up
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert json.loads(body)["outcome"] == "error"

def occupy(daemon, delay_ms: int) -> threading.Thread:
    """Hold the daemon's only slot with one delayed in-flight match."""
    thread = threading.Thread(target=request, args=(
        daemon, "POST", "/v1/match", MATCH),
        kwargs={"headers": {"X-Repro-Delay-Ms": str(delay_ms)}})
    thread.start()
    for _ in range(250):
        if daemon.admission.inflight == 1:
            break
        threading.Event().wait(0.02)
    assert daemon.admission.inflight == 1
    return thread


class TestDeadlineHeader:
    """``X-Repro-Deadline-Ms`` must be finite and > 0, checked before
    admission: on a saturated daemon ``inf`` used to kill the handler
    thread (the admission wait overflowed) and ``nan`` never expired."""

    @pytest.fixture
    def saturated(self):
        instance = make_daemon(max_inflight=1, max_queue=4,
                               allow_test_delay=True)
        instance.start()
        occupant = occupy(instance, 800)
        yield instance
        occupant.join(timeout=30.0)
        instance.stop()

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
    def test_out_of_range_deadline_is_400(self, saturated, value):
        status, raw, _ = request(saturated, "POST", "/v1/match", MATCH,
                                 headers={"X-Repro-Deadline-Ms": value},
                                 timeout=5.0)
        assert status == 400
        assert json.loads(raw)["outcome"] == "error"

    def test_far_deadline_queues_and_is_served(self, saturated):
        status, raw, _ = request(saturated, "POST", "/v1/match", MATCH,
                                 headers={"X-Repro-Deadline-Ms": "1e300"},
                                 timeout=5.0)
        assert status == 200
        assert json.loads(raw)["outcome"] == "served"

    def test_tiny_deadline_is_shed_before_queueing(self, saturated):
        # The chaos harness's ``tiny-deadline`` client sends 0.001 ms.
        status, raw, _ = request(saturated, "POST", "/v1/match", MATCH,
                                 headers={"X-Repro-Deadline-Ms": "0.001"},
                                 timeout=5.0)
        assert status == 429
        assert json.loads(raw)["reason"] == "deadline-hopeless"


class TestKeepAliveLatency:
    """Sequential requests on one keep-alive connection must finish
    well under the ~40 ms a client's delayed ACK adds when Nagle holds
    back the response body behind its headers."""

    @pytest.mark.parametrize("method, path, payload", [
        ("POST", "/v1/match", MATCH),
        ("GET", "/metricz?format=prometheus", None),
    ])
    def test_median_request_beats_delayed_ack_floor(self, method, path,
                                                    payload):
        body = json.dumps(payload).encode() if payload else None
        with observe():          # a non-empty Prometheus body
            instance = make_daemon()
            instance.start()
            connection = http.client.HTTPConnection(*instance.address,
                                                    timeout=10.0)
            elapsed = []
            try:
                for _ in range(40):
                    began = time.perf_counter()
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    raw = response.read()
                    elapsed.append(time.perf_counter() - began)
                    assert response.status == 200 and raw
            finally:
                connection.close()
                instance.stop()
        assert statistics.median(elapsed) * 1000.0 < 20.0


class TestKeepAliveFraming:
    @pytest.mark.parametrize("path, headers", [
        ("/nope", {}),
        ("/v1/match", {"X-Repro-Deadline-Ms": "soon"}),
    ])
    def test_refused_post_leaves_the_next_request_answerable(
            self, daemon, path, headers):
        connection = http.client.HTTPConnection(*daemon.address,
                                                timeout=5.0)
        try:
            connection.request("POST", path, body=json.dumps(MATCH),
                               headers=headers)
            response = connection.getresponse()
            response.read()
            assert response.status in (400, 404)
            connection.request("GET", "/readyz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


class TestHealth:
    def test_healthz_reports_epoch_and_reload_state(self, daemon):
        status, raw, _ = request(daemon, "GET", "/healthz")
        body = json.loads(raw)
        assert status == 200
        assert body["epoch"] == daemon.holder.current().epoch
        assert body["reload"]["state"] == "idle"
        assert body["draining"] is False

    def test_readyz_ready_when_serving(self, daemon):
        status, raw, _ = request(daemon, "GET", "/readyz")
        assert status == 200
        assert json.loads(raw)["status"] == "ready"

    def test_unknown_paths_are_404(self, daemon):
        assert request(daemon, "GET", "/nope")[0] == 404
        assert request(daemon, "POST", "/nope", {})[0] == 404


def make_daemon(**config) -> ServeDaemon:
    holder = SnapshotHolder.from_sources(SOURCES)
    defaults = dict(port=0, max_inflight=2, max_queue=2,
                    default_deadline_ms=5_000.0, drain_timeout_s=10.0)
    defaults.update(config)
    return ServeDaemon(holder, ServeConfig(**defaults),
                       reloader=Reloader(holder))


class TestPrometheusEndpoint:
    def test_required_families_present_at_boot(self):
        """A scrape of a freshly booted daemon already exposes the
        latency histogram, every shed-reason counter, and the
        reload-epoch gauge — no traffic required."""
        with observe():
            instance = make_daemon()
            instance.start()
            try:
                status, raw, headers = request(
                    instance, "GET", "/metricz?format=prometheus")
            finally:
                instance.stop()
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus_text(raw.decode("utf-8"))
        assert "serve_latency_ms" in families
        assert families["serve_latency_ms"]["type"] == "histogram"
        assert "serve_admission_shed_total" in families
        reasons = {labels["reason"] for _, labels, _ in
                   families["serve_admission_shed_total"]["samples"]}
        assert {"queue-full", "deadline-hopeless", "deadline-in-queue",
                "draining"} <= reasons
        assert "serve_reload_epoch" in families
        assert "serve_slo_burn_total" in families

    def test_traffic_lands_in_latency_histogram(self):
        with observe() as (registry, _):
            instance = make_daemon()
            instance.start()
            try:
                assert request(instance, "POST", "/v1/match",
                               MATCH)[0] == 200
            finally:
                instance.stop()
            flat = registry.flat()
        assert flat["serve.latency_ms.count"] == 1
        assert flat["serve.window.qps"] > 0.0

    def test_json_remains_the_default_format(self):
        with observe():
            instance = make_daemon()
            instance.start()
            try:
                status, raw, headers = request(instance, "GET", "/metricz")
            finally:
                instance.stop()
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        flat = json.loads(raw)
        assert "serve.window.qps" in flat

    def test_prometheus_empty_when_observability_disabled(self, daemon):
        status, raw, _ = request(daemon, "GET",
                                 "/metricz?format=prometheus")
        assert (status, raw) == (200, b"")


class TestTelemetryDrainFlush:
    def test_drain_seals_timeseries_and_dumps_flight(self, tmp_path):
        """The SIGTERM sequence must leave zero torn telemetry: every
        segment strictly verifiable, flight dump present with the
        drain marker event."""
        ts_path = str(tmp_path / "ts.jsonl")
        flight_path = str(tmp_path / "flight.jsonl")
        sampler = TimeSeriesSampler(
            RotatingJsonlExporter(ts_path, run_id="rid"), interval_s=0.05)
        flight = FlightRecorder(path=flight_path, run_id="rid")
        with observe(timeseries=sampler, flight=flight):
            instance = make_daemon(telemetry_interval_s=0.05)
            instance.start()
            try:
                assert request(instance, "POST", "/v1/match",
                               MATCH)[0] == 200
            finally:
                assert instance.drain_and_stop() is True
        series = load_timeseries(ts_path, strict=True)
        assert series.complete
        assert series.run_id == "rid"
        assert len(series.samples) >= 1        # the final drain sample
        dump = load_flight(flight_path)
        assert dump.reason == "drain"
        assert "serve.drain" in [e["kind"] for e in dump.events]

    def test_flush_is_idempotent_under_stop_race(self, tmp_path):
        ts_path = str(tmp_path / "ts.jsonl")
        sampler = TimeSeriesSampler(
            RotatingJsonlExporter(ts_path, run_id="rid"), interval_s=0.05)
        with observe(timeseries=sampler):
            instance = make_daemon()
            instance.start()
            instance.drain_and_stop()
            instance.drain_and_stop()          # second flush is a no-op
            instance.stop()
        assert load_timeseries(ts_path, strict=True).complete

    def test_plain_stop_leaves_stream_unsealed(self, tmp_path):
        """stop() without a drain is the crash path: the stream stays
        open (honest torn tail) but the ticker thread must not leak."""
        ts_path = str(tmp_path / "ts.jsonl")
        sampler = TimeSeriesSampler(
            RotatingJsonlExporter(ts_path, run_id="rid"), interval_s=0.05)
        with observe(timeseries=sampler):
            instance = make_daemon(telemetry_interval_s=0.01)
            instance.start()
            for _ in range(200):
                if sampler.samples_emitted:
                    break
                threading.Event().wait(0.01)
            instance.stop()
            assert instance._ticker is None
        assert not sampler.closed
        series = load_timeseries(ts_path)      # tolerant read still works
        assert series.complete is False


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, daemon):
        results = []

        def occupant():
            results.append(request(
                daemon, "POST", "/v1/match", MATCH,
                headers={"X-Repro-Delay-Ms": "1000"}))

        thread = threading.Thread(target=occupant)
        thread.start()
        for _ in range(100):
            if daemon.admission.inflight == 1:
                break
            threading.Event().wait(0.02)
        assert daemon.admission.inflight == 1

        daemon.begin_drain()
        refused_status, refused_raw, _ = request(daemon, "POST",
                                                 "/v1/match", MATCH)
        ready_status, _, ready_headers = request(daemon, "GET", "/readyz")
        health_status = request(daemon, "GET", "/healthz")[0]
        reload_status = request(
            daemon, "POST", "/admin/reload",
            {"lists": [{"name": "x", "text": "||a.example^"}]})[0]

        drainer = threading.Thread(target=daemon.drain_and_stop)
        drainer.start()
        thread.join(timeout=30.0)
        drainer.join(timeout=30.0)

        assert refused_status == 503
        assert json.loads(refused_raw)["reason"] == "draining"
        assert ready_status == 503
        assert "Retry-After" in ready_headers
        assert health_status == 200         # liveness stays up
        assert reload_status == 503
        # The in-flight request was finished, not killed.
        assert results and results[0][0] == 200
        assert json.loads(results[0][1])["outcome"] == "served"
        assert daemon.stopped

    def test_drain_and_stop_is_clean_when_idle(self, daemon):
        assert daemon.drain_and_stop() is True
        assert daemon.stopped
