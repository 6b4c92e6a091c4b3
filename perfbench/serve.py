"""The serving workload: ``serve-openloop``.

It drives ``python -m repro serve`` over HTTP the way users do.  The
daemon restarts from a snapshot store that an untimed first boot
populated.  Each read is one synthetic page load sent as one
``/v1/match`` batch: ``document_privileges``, one ``check_request`` per
subresource of :func:`repro.web.sites.build_page`, then
``elemhide_stylesheet``.

The load is open loop: one process, ``nproc`` threads with one
keep-alive connection each, pulling from one due-ordered queue.  Every
latency is timed from the moment the request was due, so a stall that
delays later requests is charged to them too.

* The ladder steps up the offered rate until the daemon saturates; the
  highest rung before the first that misses the latency limit or builds
  a backlog is the rate served within the limit.
* The churn phase that follows reads at one fixed rate while
  ``POST /admin/reload`` requests, alternating two list sets, go into
  the same queue at a fixed interval.

The output check compares each distinct response body with
:func:`repro.serve.protocol.serve_match` run in this process on a
snapshot of the same lists, chosen by the epoch the response carries.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque

import hostref
from tracer import percentile, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered rates in page loads per second.  The first rung is the
#: latency rung and lasts two thirds of ``--seconds``; later rungs a
#: sixth.  With the churn phase the load lasts about ``--seconds``.
LADDER = (15, 30, 60, 120, 240, 480, 960)
FIRST_RUNG_SHARE = 2 / 3
LATER_RUNG_SHARE = 1 / 6
#: The ladder stops after the first rung served below this share of its
#: rate: capacity is measured there even when a lower rung already
#: missed the latency limit.
SATURATED_SHARE = 0.9
#: The churn phase: its share of ``--seconds``, its read rate, and one
#: reload every this many seconds.
CHURN_SHARE = 1 / 3
CHURN_RATE = 15
RELOAD_EVERY_S = 2.0
#: The daemon's own ``ServeConfig.slo_latency_ms``.
SLO_MS = 100.0
#: A rung builds a backlog when its late sends drift by more than this.
BACKLOG_DRIFT_MS = 0.1 * SLO_MS
SETUP_REPEATS = 3
#: Pages per workload seed: the latency rung sends each one once.
PAGES = {"full": 150, "small": 20}
STUDY_SEED = 2015
EXTRA_FILTER = "||perfbench-reload.example^$third-party"
REQUEST_TIMEOUT_S = 10.0
BOOT_TIMEOUT_S = 60.0

#: Daemon span name -> breakdown layer.
SERVE_SPANS = {
    "serve.handle_match": "serve",
    "serve.admit": "serve",
    "serve.parse": "serve",
    "serve.match": "serve",
    "serve.encode": "serve",
    "filters.check_request": "filters",
    "filters.hidden_elements": "filters",
    "filters.parse": "filters",
    "filters.freeze": "filters",
    "serve.reload_build": "serve",
    "serve.reload_persist": "serve",
}


# -- inputs ------------------------------------------------------------------

def page_payloads(seed: int, count: int) -> list[bytes]:
    """``count`` page loads sampled by ``seed`` from the survey targets.

    The sample is stratified by batch size: the targets are ordered by
    how many operations their page load sends and cut into ``count``
    runs, and the seed picks one page from each run.  Every seed so
    sends a different set of pages with the same mix of page weights.
    """
    from repro.history.generator import generate_history
    from repro.measurement.samples import build_samples
    from repro.measurement.survey import make_profile_factory
    from repro.web.sites import build_page
    from repro.web.url import parse_url

    history = generate_history(seed=STUDY_SEED, key_bits=512)
    factory = make_profile_factory(history)
    batches = []
    for group in build_samples(history.population.ranking, top_n=600,
                               stratum_size=150):
        for target in group.targets:
            profile = factory(target)
            page = build_page(profile, has_cookies=False,
                              adblock_visible=profile.adblock_detecting)
            page_url = page.document.url
            page_host = parse_url(page_url).host
            ops = [{"op": "document_privileges", "page_url": page_url,
                    "page_host": page_host}]
            for request in page.requests:
                ops.append({"op": "check_request", "url": request.url,
                            "content_type": request.content_type.name,
                            "page_host": page_host,
                            "request_host": parse_url(request.url).host,
                            "page_url": page_url})
            ops.append({"op": "elemhide_stylesheet", "page_host": page_host})
            batches.append((len(ops), target.domain, ops))
    batches.sort(key=lambda batch: batch[:2])
    rng = random.Random(seed)
    picked = []
    for stratum in range(count):
        low = stratum * len(batches) // count
        high = (stratum + 1) * len(batches) // count
        picked.append(batches[rng.randrange(low, high)][2])
    rng.shuffle(picked)
    return [json.dumps({"requests": ops}).encode() for ops in picked]


def reload_sources(sources: list[tuple[str, str]]
                   ) -> list[tuple[str, str]]:
    """The second list set: the paper lists plus one filter."""
    (name, text), *rest = sources
    return [(name, text + "\n" + EXTRA_FILTER), *rest]


def reload_body(sources: list[tuple[str, str]]) -> bytes:
    return json.dumps({"lists": [{"name": name, "text": text}
                                 for name, text in sources]}).encode()


# -- the daemon ----------------------------------------------------------------

class Daemon:
    """One ``repro serve`` process: spawn, boot to ready, stop."""

    def __init__(self, root: str, store: str, *,
                 spans_out: str | None = None) -> None:
        self.root = root
        argv = ["serve", "--snapshot-dir", store, "--port", "0"]
        if spans_out is None:
            self.command = [sys.executable, "-m", "repro", *argv]
        else:
            self.command = [sys.executable,
                            os.path.join(HERE, "launcher.py"),
                            "--spans-out", spans_out, "--", *argv]
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.boot_s = 0.0

    def start(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.address = self._await_address(start + BOOT_TIMEOUT_S)
        connection = http.client.HTTPConnection(*self.address,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    break
                if time.perf_counter() - start > BOOT_TIMEOUT_S:
                    self.stop()
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.005)
        finally:
            connection.close()
        self.boot_s = time.perf_counter() - start
        return self.boot_s

    def _await_address(self, deadline: float) -> tuple[str, int]:
        """Read stdout until the daemon prints where it serves."""
        buffered = b""
        stream = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.05)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(stream.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            for line in buffered.decode(errors="replace").splitlines():
                if line.startswith("serving epoch") and " on http://" in line:
                    host, port = line.rsplit("http://", 1)[1].rsplit(":", 1)
                    return host, int(port)
        self.stop()
        raise RuntimeError(f"daemon did not come up: {buffered!r}")

    def metrics(self) -> dict:
        connection = http.client.HTTPConnection(*self.address,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/metricz")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (the graceful drain), then wait for the exit."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()


# -- the open-loop generator ---------------------------------------------------

#: Request ids, unique within a benchmark process (``X-Bench-Id``).
_REQUEST_IDS = itertools.count()


class Sent:
    """One request's record, as the client saw it."""

    __slots__ = ("rid", "kind", "item", "due", "sent", "done", "status",
                 "body")

    def __init__(self, rid: int, kind: str, item: int, due: float) -> None:
        self.rid, self.kind, self.item, self.due = rid, kind, item, due
        self.sent = self.done = 0.0
        self.status = 0           # 0: transport failure
        self.body = b""

    @property
    def latency_ms(self) -> float:
        if self.status != 200:
            return float("inf")
        return 1000.0 * (self.done - self.due)

    @property
    def service_ms(self) -> float:
        return 1000.0 * (self.done - self.sent)

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.sent - self.due)


def open_loop(address, schedule: list[tuple[float, str, int]],
              bodies: dict[str, list[bytes]], *, threads: int,
              cutoff_s: float) -> tuple[list[Sent], int]:
    """Send ``(offset_s, kind, item)`` requests when due.

    ``threads`` workers, one keep-alive connection each, take the next
    due request from one shared queue.  Requests still unsent
    ``cutoff_s`` after the start are dropped and counted as unsent.
    Returns the sent records and the number left unsent.
    """
    # The client is the measuring instrument: a collector pause here
    # would show up as daemon latency, so it runs before the clock and
    # not during it.
    gc.collect()
    start = time.perf_counter() + 0.05
    queue = deque(Sent(next(_REQUEST_IDS), kind, item, start + offset)
                  for offset, kind, item in schedule)
    lock = threading.Lock()
    sent: list[Sent] = []
    unsent = [0]
    paths = {"match": "/v1/match", "reload": "/admin/reload"}

    def worker() -> None:
        connection = http.client.HTTPConnection(*address,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    record = queue.popleft()
                    if time.perf_counter() - start > cutoff_s:
                        unsent[0] += 1 + len(queue)
                        queue.clear()
                        return
                    sent.append(record)
                wait = record.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                record.sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", paths[record.kind],
                        body=bodies[record.kind][record.item],
                        headers={"Content-Type": "application/json",
                                 "X-Bench-Id": str(record.rid)})
                    response = connection.getresponse()
                    record.body = response.read()
                    record.status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                record.done = time.perf_counter()
        finally:
            connection.close()

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    gc.disable()
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    finally:
        gc.enable()
    sent.sort(key=lambda record: record.rid)
    return sent, unsent[0]


def warm_up(address, payloads: list[bytes], threads: int) -> None:
    """Send every page once, untimed, so the daemon's caches are warm.

    One connection per request: a fresh connection acknowledges at once,
    so the warm-up does not sit in the delayed-ACK stall.
    """
    pending = deque(payloads)

    def worker() -> None:
        while True:
            try:
                body = pending.popleft()
            except IndexError:
                return
            connection = http.client.HTTPConnection(
                *address, timeout=REQUEST_TIMEOUT_S)
            try:
                connection.request("POST", "/v1/match", body=body)
                connection.getresponse().read()
            finally:
                connection.close()

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()


def ladder_schedule(rate: float, seconds: float, pages: int
                    ) -> list[tuple[float, str, int]]:
    return [(i / rate, "match", i % pages)
            for i in range(int(rate * seconds))]


def churn_schedule(seconds: float, pages: int
                   ) -> list[tuple[float, str, int]]:
    """Reads at ``CHURN_RATE`` plus a reload every ``RELOAD_EVERY_S``,
    half an interval in, alternating the extended and the paper lists."""
    schedule = ladder_schedule(CHURN_RATE, seconds, pages)
    reloads = max(1, int(seconds / RELOAD_EVERY_S))
    schedule += [((index + 0.5) * RELOAD_EVERY_S, "reload", (index + 1) % 2)
                 for index in range(reloads)]
    return sorted(schedule, key=lambda entry: entry[0])


def backlog_grew(records: list[Sent]) -> bool:
    """True when sends ran later at the end of a rung than at its start."""
    late = [r.late_ms for r in records]
    fifth = max(1, len(late) // 5)
    return (statistics.median(late[-fifth:])
            - statistics.median(late[:fifth])) > BACKLOG_DRIFT_MS


# -- the output check ------------------------------------------------------------

class Parity:
    """Daemon bytes vs :func:`serve_match` on a local snapshot, per epoch."""

    def __init__(self, source_sets: list[list[tuple[str, str]]]) -> None:
        from repro.serve.reload import build_snapshot_from_sources

        self.snapshots = {}
        for sources in source_sets:
            snapshot = build_snapshot_from_sources(sources)
            self.snapshots[snapshot.epoch] = snapshot
        self._expected: dict[tuple[int, int], bytes] = {}

    def expected(self, epoch: int, item: int, payload: bytes
                 ) -> bytes | None:
        from repro.serve import protocol

        key = (epoch, item)
        if key not in self._expected:
            snapshot = self.snapshots.get(epoch)
            if snapshot is None:
                return None
            _outcome, body = protocol.serve_match(
                snapshot, protocol.parse_match_payload(payload))
            self._expected[key] = protocol.encode(body)
        return self._expected[key]

    def mismatches(self, records: list[Sent], payloads: list[bytes]
                   ) -> tuple[int, list[str]]:
        """Requests whose 200 body differs from the local reference."""
        verdicts: dict[tuple[int, bytes], bool] = {}
        bad = 0
        problems = []
        for record in records:
            if record.kind != "match" or record.status != 200:
                continue
            key = (record.item, record.body)
            if key not in verdicts:
                epoch = json.loads(record.body).get("epoch")
                want = self.expected(epoch, record.item,
                                     payloads[record.item])
                verdicts[key] = want == record.body
                if want != record.body:
                    problems.append(
                        f"page {record.item} epoch {epoch}: daemon body "
                        f"differs from serve_match")
            bad += not verdicts[key]
        return bad, problems


def failures(records: list[Sent]) -> int:
    """Errored, shed, timed out, non-200, or not fully served."""
    bad = 0
    for record in records:
        if record.status != 200:
            bad += 1
        elif record.kind == "match":
            bad += b'"outcome":"served"' not in record.body
        else:
            bad += b'"status":"swapped"' not in record.body
    return bad


# -- the workloads ---------------------------------------------------------------

class ServeWorkload:
    def __init__(self, seed: int, seconds: float, size: str,
                 root: str, workdir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.threads = os.cpu_count() or 2
        self.store = tempfile.mkdtemp(prefix="store-", dir=workdir)
        self.payloads = page_payloads(seed, PAGES[size])
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    # The first boot builds the lists from the study and persists them
    # plus the compiled-index artifact; every later boot restarts from it.
    def populate_store(self) -> list[tuple[str, str]]:
        from repro.state.snapshots import SnapshotStore

        daemon = Daemon(self.root, self.store)
        try:
            daemon.start()
        finally:
            daemon.stop()
        _epoch, sources = SnapshotStore(self.store).load_latest()
        return [(str(name), str(text)) for name, text in sources]

    def run(self, trace: bool, *, plant_mismatch: bool = False) -> dict:
        sources = self.populate_store()
        source_sets = [sources, reload_sources(sources)]
        bodies = {"match": self.payloads,
                  "reload": [reload_body(s) for s in source_sets]}
        parity = Parity(source_sets)
        if plant_mismatch:
            # Smoke-test hook: a reference that can never match.
            parity.expected = lambda *_args: b"planted\n"
        # Reference chunks between boots, with no daemon running, gauge
        # the host's speed for the set-up time (see hostref.py).
        chunks: list[float] = []
        hostref.sample(chunks)
        boots = []
        for _ in range(SETUP_REPEATS - 1):
            daemon = Daemon(self.root, self.store)
            try:
                boots.append(daemon.start())
            finally:
                daemon.stop()
            hostref.sample(chunks)
        daemon = Daemon(self.root, self.store)
        try:
            boots.append(daemon.start())
            measured = self._load(daemon, bodies, parity)
        finally:
            daemon.stop()
        hostref.sample(chunks)
        measured["wall_setup_s"] = statistics.median(boots)
        measured["slowdown"] = hostref.slowdown(chunks)
        if not trace:
            return self._result(self._e2e(measured))
        spans_out = os.path.join(self.workdir, "daemon-spans.json")
        daemon = Daemon(self.root, self.store, spans_out=spans_out)
        try:
            daemon.start()
            traced = self._load(daemon, bodies, parity)
            counters = daemon.metrics()
        finally:
            daemon.stop()
        with open(spans_out, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        metrics = serve_layer_metrics(spans, traced, measured, counters)
        metrics["failed_ratio"] = self.failed / self.attempted
        metrics["serve.max_rps_at_slo"] = max_rps_at_slo(measured["rungs"])
        return self._result({**self._e2e(measured), **metrics})

    def _result(self, metrics: dict) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "metrics": metrics}

    def _load(self, daemon: Daemon, bodies, parity: Parity) -> dict:
        """Warm the daemon up, then send the workload's load."""
        pages = len(self.payloads)
        warm_up(daemon.address, self.payloads, self.threads)
        cpu0 = daemon.cpu_s()
        rungs = []
        for rate in LADDER:
            length = self.seconds * (LATER_RUNG_SHARE if rungs
                                     else FIRST_RUNG_SHARE)
            rungs.append(Rung(rate, length, daemon.address,
                              ladder_schedule(rate, length, pages),
                              bodies, self.threads))
            if len(rungs) == 1:
                cpu_s = daemon.cpu_s() - cpu0
            time.sleep(0.2)
            if rungs[-1].saturated:
                break
        peak_rss_mb = daemon.peak_rss_mb()
        length = self.seconds * CHURN_SHARE
        churn = Rung(CHURN_RATE, length, daemon.address,
                     churn_schedule(length, pages), bodies, self.threads)
        # Requests still unsent at a rung's cutoff were never attempted;
        # they fail that rung's latency limit instead.
        for rung in rungs + [churn]:
            self.attempted += len(rung.records)
            self.failed += failures(rung.records)
            bad, problems = parity.mismatches(rung.records, self.payloads)
            self.failed += bad
            self.problems += problems[:5]
        return {"rungs": rungs, "churn": churn, "cpu_s": cpu_s,
                "peak_rss_mb": peak_rss_mb}

    def _e2e(self, measured: dict) -> dict:
        rungs = measured["rungs"]
        latencies = [r.latency_ms for r in rungs[0].reads]
        return {
            # Boot time on the reference host; capacity is left as
            # measured, because the delayed-ACK stall, not the host's
            # speed, sets it.
            "setup_s": (measured["wall_setup_s"] / measured["slowdown"],
                        "s"),
            "wall_setup_s": (measured["wall_setup_s"], "s"),
            "host.slowdown": (measured["slowdown"], "ratio"),
            "throughput_per_s": (max(rung.completion_rate for rung in rungs),
                                 "1/s"),
            "latency_p50_ms": (percentile(latencies, 50), "ms"),
            "latency_p90_ms": (percentile(latencies, 90), "ms"),
            "cpu_ms_per_op": (1000.0 * measured["cpu_s"]
                              / len(rungs[0].reads), "ms"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        }


class Rung:
    """One open-loop phase at a fixed rate, sent and judged."""

    def __init__(self, rate: float, seconds: float, address, schedule,
                 bodies, threads: int) -> None:
        self.rate = rate
        self.seconds = seconds
        self.records, self.unsent = open_loop(
            address, schedule, bodies, threads=threads,
            cutoff_s=seconds * 1.5 + 1)
        self.reads = [r for r in self.records if r.kind == "match"]
        self.passed = (not self.unsent and bool(self.reads)
                       and percentile([r.latency_ms for r in self.reads],
                                      95) <= SLO_MS
                       and not backlog_grew(self.reads))

    @property
    def saturated(self) -> bool:
        """Served clearly fewer page loads per second than offered."""
        return self.completion_rate < SATURATED_SHARE * self.rate

    @property
    def completion_rate(self) -> float:
        """Page loads served per second while this rung ran."""
        served = [r for r in self.reads if r.status == 200]
        if not served:
            return 0.0
        span = max(r.done for r in served) - min(r.due for r in self.reads)
        return len(served) / span


def max_rps_at_slo(rungs: list[Rung]) -> float:
    """The highest rate before the first rung that missed the limit."""
    best = 0
    for rung in rungs:
        if not rung.passed:
            break
        best = rung.rate
    return best


# -- per-layer metrics -------------------------------------------------------------

def serve_layer_metrics(spans: list[list], traced: dict, untraced: dict,
                        counters: dict) -> dict:
    """Daemon spans joined to client records by request id."""
    from survey import LAYERS

    own = self_times(spans)
    by_request: dict[str, dict[str, float]] = {}
    by_request_self: dict[str, dict[str, float]] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        tag = span[5]
        if not tag:
            continue
        names = by_request.setdefault(tag, {})
        names[span[0]] = names.get(span[0], 0.0) + span[2] - span[1]
        selfs = by_request_self.setdefault(tag, {})
        selfs[span[0]] = selfs.get(span[0], 0.0) + self_s
        if span[0] == "filters.check_request":
            calls[tag] = calls.get(tag, 0) + 1

    records = [r for rung in traced["rungs"] + [traced["churn"]]
               for r in rung.records]
    reads = [r for r in records if r.kind == "match" and r.status == 200]
    reloads = [r for r in records if r.kind == "reload"]

    def ms(name: str, rs) -> list[float]:
        return [1000.0 * by_request.get(str(r.rid), {}).get(name, 0.0)
                for r in rs]

    breakdown = {layer: 0.0 for layer in LAYERS}
    wire = []
    check_calls = 0
    for r in reads:
        selfs = by_request_self.get(str(r.rid), {})
        for name, value in selfs.items():
            breakdown[SERVE_SPANS[name]] += value
        daemon_s = sum(selfs.values())
        wire.append(r.service_ms - 1000.0 * daemon_s)
        breakdown["queue"] += r.late_ms / 1000.0
        check_calls += calls.get(str(r.rid), 0)
    wall = sum(r.latency_ms for r in reads) / 1000.0
    filters_s = {name: sum(selfs.get(name, 0.0)
                           for selfs in by_request_self.values())
                 for name in ("filters.check_request", "filters.hidden_elements",
                              "filters.parse", "filters.freeze")}

    probes = counters.get("filters.index.probes", 0)
    candidates = counters.get("filters.index.candidates_yielded", 0)
    fallback = counters.get("filters.index.fallback_scanned", 0)
    matched = sum(value for key, value in counters.items()
                  if key.startswith("filters.engine.verdicts{")
                  and "via=match" in key and "verdict=no_match" not in key)

    untraced_p50 = percentile(
        [r.latency_ms for r in untraced["rungs"][0].reads], 50)
    traced_p50 = percentile(
        [r.latency_ms for r in traced["rungs"][0].reads], 50)
    untraced_reloads = [r.service_ms for r in untraced["churn"].records
                        if r.kind == "reload"
                        and b'"status":"swapped"' in r.body]
    churn_reads = [r.latency_ms for r in untraced["churn"].reads]

    metrics = {
        "filters.parse_s": filters_s["filters.parse"],
        "filters.freeze_s": filters_s["filters.freeze"],
        "filters.check_request_calls": check_calls,
        "filters.check_request_s": filters_s["filters.check_request"],
        "filters.hidden_elements_s": filters_s["filters.hidden_elements"],
        "filters.candidates_per_probe": candidates / probes if probes else 0,
        "filters.fallback_share": fallback / candidates if candidates else 0,
        "filters.match_yield": matched / candidates if candidates else 0,
        "serve.wire_ms.p50": percentile(wire, 50),
        "serve.wire_ms.p95": percentile(wire, 95),
        "serve.shed_ratio": (sum(1 for r in records if r.status in (429, 503))
                             / len(records) if records else 0),
        # On the first rung, where sends should be on time; later
        # ladder rungs are late because the daemon fell behind.
        "serve.generator_late_ms": percentile(
            [r.late_ms for r in traced["rungs"][0].records], 95),
        "serve.reload_ms": (statistics.median(untraced_reloads)
                            if untraced_reloads else 0),
        "serve.churn_read_ms.p50": percentile(churn_reads, 50),
        "serve.churn_read_ms.p90": percentile(churn_reads, 90),
        "serve.reload_build_ms": _median_ms(
            by_request, reloads, "serve.reload_build"),
        "serve.reload_persist_ms": _median_ms(
            by_request, reloads, "serve.reload_persist"),
        "serve.artifact_load_hits": sum(
            value for key, value in counters.items()
            if key.startswith("filters.index.automaton_artifact{")
            and "event=load_hit" in key),
        "trace.wall_s": wall,
        "trace.overhead_ratio": (traced_p50 / untraced_p50
                                 if untraced_p50 else 0),
        "remainder_s": wall - sum(breakdown.values()),
    }
    for stage, span_name in (("handle_match", "serve.handle_match"),
                             ("admission_wait", "serve.admit"),
                             ("parse", "serve.parse"),
                             ("match", "serve.match"),
                             ("encode", "serve.encode")):
        values = ms(span_name, reads)
        metrics[f"serve.{stage}_ms.p50"] = percentile(values, 50)
        metrics[f"serve.{stage}_ms.p95"] = percentile(values, 95)
    for layer in LAYERS:
        metrics[f"breakdown.{layer}_s"] = breakdown[layer]
    return metrics


def _median_ms(by_request, records, name: str) -> float:
    values = [1000.0 * by_request[str(r.rid)][name] for r in records
              if name in by_request.get(str(r.rid), {})]
    return statistics.median(values) if values else 0
