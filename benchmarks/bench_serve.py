"""Benchmark: the filter-match serving daemon under sustained load.

Three questions, answered in one JSON artifact
(``benchmarks/results/BENCH_serve.json``):

1. **What does the daemon sustain?**  A threaded load generator drives
   the full HTTP path (admission → parse → frozen-snapshot match →
   canonical encode) over one keep-alive connection per client and
   records QPS plus p50/p95/p99 latency twice: ``client_latency_ms``,
   each request timed in the client thread from send to the last body
   byte, and ``latency_ms``, the daemon's own ``serve.latency_ms``
   histogram (:meth:`repro.obs.metrics.Histogram.percentile`), which
   spans body read to response write.  The gap between the two is
   connect, kernel and client time the daemon cannot see.

2. **What does hot-reload cost the serving path?**  The same load runs
   again while a churn thread swaps snapshots through
   ``POST /admin/reload`` the whole time; the artifact records both
   phases side by side, the number of swaps that landed, and how many
   distinct epochs the clients actually observed mid-flight.

3. **Is the daemon byte-faithful?**  Every corpus payload's HTTP
   response body is compared against
   :func:`repro.serve.protocol.serve_match` over the same snapshot —
   the verdict-parity acceptance.  ``parity.mismatches`` is the CI
   perf-gate metric: it is deterministic (0 or bust), unlike QPS,
   which is shared-runner weather and deliberately not gated.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s

Set ``BENCH_QUICK=1`` (the CI serve-smoke job does) for a scaled-down
run that still emits the JSON and keeps every assertion.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import threading
import time

from repro.measurement.easylist import build_easylist
from repro.obs import observe
from repro.serve import (
    Reloader,
    ServeConfig,
    ServeDaemon,
    SnapshotHolder,
    protocol,
)
from repro.serve.protocol import parse_match_payload, serve_match

from benchmarks.conftest import (BENCH_QUICK, RESULTS_DIR, print_block,
                                 write_result)

_CLIENTS = 4 if BENCH_QUICK else 8
_REQUESTS_PER_CLIENT = 50 if BENCH_QUICK else 250
_CORPUS_SIZE = 48
_WHITELISTED_PAGES = 12

_RESULT_PATH = os.path.join(
    RESULTS_DIR, "BENCH_serve_quick.json" if BENCH_QUICK else "BENCH_serve.json")

_WORDS = ("banner", "click", "pop", "track")


def _sources() -> list[tuple[str, str]]:
    """The serving lists: the synthetic EasyList + a scoped whitelist."""
    easylist = build_easylist()
    whitelist_lines = [
        f"@@||{_WORDS[i % len(_WORDS)]}server{i * 4}.com^"
        f"$domain=friendly{i}.example"
        for i in range(_WHITELISTED_PAGES)]
    return [
        ("easylist", "\n".join(e.text for e in easylist.entries)),
        ("exceptionrules", "\n".join(whitelist_lines)),
    ]


def _churn_sources(flip: int) -> list[tuple[str, str]]:
    """Alternate list sets so every other reload really changes epoch."""
    base = _sources()
    if flip % 2:
        name, text = base[0]
        return [(name, text + "\nchurn-extra-filter.example/ads/"),
                base[1]]
    return base


def _corpus() -> list[dict]:
    """A deterministic mix: blocked, clean, and whitelisted requests."""
    corpus: list[dict] = []
    for i in range(_CORPUS_SIZE):
        word = _WORDS[i % len(_WORDS)]
        kind = i % 3
        if kind == 0:       # hits a ||{word}server{n}.com^$third-party rule
            corpus.append({
                "url": f"http://{word}server{(i * 4) % 96}.com/ad.js",
                "content_type": "script",
                "page_host": f"news{i}.example",
                "request_host": f"{word}server{(i * 4) % 96}.com"})
        elif kind == 1:     # clean
            corpus.append({
                "url": f"http://cdn{i}.site.example/asset{i}.png",
                "content_type": "image",
                "page_host": f"news{i}.example",
                "request_host": f"cdn{i}.site.example"})
        else:               # whitelisted page context
            page = i % _WHITELISTED_PAGES
            corpus.append({
                "url": f"http://{word}server{page * 4}.com/ad.js",
                "content_type": "script",
                "page_host": f"friendly{page}.example",
                "page_url": f"http://friendly{page}.example/",
                "request_host": f"{word}server{page * 4}.com"})
    return corpus


def _start_daemon() -> ServeDaemon:
    holder = SnapshotHolder.from_sources(_sources())
    daemon = ServeDaemon(
        holder,
        ServeConfig(port=0, max_inflight=max(_CLIENTS, 2),
                    max_queue=256, default_deadline_ms=10_000.0),
        reloader=Reloader(holder))
    daemon.start()
    return daemon


def _run_load(daemon: ServeDaemon, corpus: list[dict]) -> dict:
    """One load phase; returns outcome counts, QPS, and epochs seen."""
    host, port = daemon.address
    outcomes = {"served": 0, "degraded": 0, "shed": 0, "error": 0}
    epochs: set[int] = set()
    latencies: list[float] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=60.0)
        local = {"served": 0, "degraded": 0, "shed": 0, "error": 0}
        seen: set[int] = set()
        timings: list[float] = []
        try:
            for number in range(_REQUESTS_PER_CLIENT):
                payload = json.dumps(corpus[(index + number) % len(corpus)])
                began = time.perf_counter()
                connection.request(
                    "POST", "/v1/match", body=payload,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                raw = response.read()
                timings.append((time.perf_counter() - began) * 1000.0)
                body = json.loads(raw)
                outcome = body.get("outcome", "error")
                local[outcome if outcome in local else "error"] += 1
                if "epoch" in body:
                    seen.add(body["epoch"])
        finally:
            connection.close()
        with lock:
            for key, value in local.items():
                outcomes[key] += value
            epochs.update(seen)
            latencies.extend(timings)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    sent = _CLIENTS * _REQUESTS_PER_CLIENT
    return {
        "requests": sent,
        "outcomes": outcomes,
        "epochs_observed": len(epochs),
        "wall_clock_s": round(elapsed, 4),
        "qps": round(sent / elapsed, 1) if elapsed else 0.0,
        "client_latency_ms": {
            f"p{q}": round(_percentile(latencies, q), 3)
            for q in (50, 95, 99)},
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _phase(daemon: ServeDaemon, corpus: list[dict]) -> dict:
    """Run one load phase under its own registry; attach percentiles."""
    with observe() as (registry, _tracer):
        stats = _run_load(daemon, corpus)
        histogram = registry.histogram("serve.latency_ms")
        stats["latency_ms"] = {
            "mean": round(histogram.mean, 3),
            "p50": round(histogram.percentile(50), 3),
            "p95": round(histogram.percentile(95), 3),
            "p99": round(histogram.percentile(99), 3),
        }
    return stats


def _parity(daemon: ServeDaemon, corpus: list[dict]) -> dict:
    """Daemon bytes vs direct engine bytes over the whole corpus."""
    host, port = daemon.address
    snapshot = daemon.holder.current()
    mismatches = 0
    connection = http.client.HTTPConnection(host, port, timeout=60.0)
    try:
        for payload in corpus:
            body = json.dumps(payload).encode()
            connection.request("POST", "/v1/match", body=body)
            daemon_bytes = connection.getresponse().read()
            _, direct = serve_match(snapshot, parse_match_payload(body))
            if daemon_bytes != protocol.encode(direct):
                mismatches += 1
    finally:
        connection.close()
    return {"requests": len(corpus), "mismatches": mismatches}


def test_serve_benchmark():
    daemon = _start_daemon()
    corpus = _corpus()
    filter_count = daemon.holder.current().filter_count
    try:
        parity = _parity(daemon, corpus)
        steady = _phase(daemon, corpus)

        # Phase 2: identical load with a reload churning underneath.
        stop = threading.Event()
        reloads = {"swapped": 0, "rejected": 0}

        def churn() -> None:
            flip = 0
            while not stop.is_set():
                flip += 1
                result = daemon.reloader.reload(_churn_sources(flip))
                reloads[result.status] = reloads.get(result.status, 0) + 1
                stop.wait(0.02)

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            reloaded = _phase(daemon, corpus)
        finally:
            stop.set()
            churner.join(timeout=30.0)
        reloaded["reloads"] = dict(reloads)
    finally:
        daemon.stop()

    payload = {
        "benchmark": "serve",
        "quick": BENCH_QUICK,
        "config": {
            "clients": _CLIENTS,
            "requests_per_client": _REQUESTS_PER_CLIENT,
            "corpus": len(corpus),
            "filters": filter_count,
        },
        "parity": parity,
        "steady": steady,
        "reload_churn": reloaded,
    }
    write_result(_RESULT_PATH, payload)

    print_block(
        f"serve ({payload['config']['filters']:,} filters, "
        f"{_CLIENTS} clients x {_REQUESTS_PER_CLIENT} requests):\n"
        f"steady       {steady['qps']:,} qps  "
        f"client p50={steady['client_latency_ms']['p50']}ms "
        f"p95={steady['client_latency_ms']['p95']}ms "
        f"p99={steady['client_latency_ms']['p99']}ms  "
        f"daemon p50={steady['latency_ms']['p50']}ms "
        f"p99={steady['latency_ms']['p99']}ms\n"
        f"reload churn {reloaded['qps']:,} qps  "
        f"client p50={reloaded['client_latency_ms']['p50']}ms "
        f"p99={reloaded['client_latency_ms']['p99']}ms  "
        f"daemon p50={reloaded['latency_ms']['p50']}ms "
        f"p99={reloaded['latency_ms']['p99']}ms  "
        f"({reloaded['reloads']['swapped']} swaps, "
        f"{reloaded['epochs_observed']} epochs observed)\n"
        f"parity: {parity['mismatches']}/{parity['requests']} mismatches\n"
        f"results -> {_RESULT_PATH}")

    assert parity["mismatches"] == 0, "daemon diverged from the engine"
    assert steady["outcomes"]["served"] == steady["requests"], (
        f"steady load shed or errored: {steady['outcomes']}")
    assert reloaded["outcomes"]["served"] == reloaded["requests"], (
        f"reload churn dropped requests: {reloaded['outcomes']}")
    assert reloaded["reloads"]["swapped"] >= 1, \
        "no reload landed during the churn phase"
    assert reloaded["epochs_observed"] >= 2, \
        "clients never observed an epoch change mid-flight"
