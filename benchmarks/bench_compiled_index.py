"""Benchmark: the compiled filter index against the PR-4 legacy probe.

Quantifies the tentpole claim in docs/PERFORMANCE.md: producing a
request's candidate-filter sequence through the ahead-of-time compiled
index (:mod:`repro.filters.compiled`) is >= 10x faster than the legacy
``FilterIndex.candidates`` generator — with byte-identical candidate
sequences and verdicts — because the compiled probe replaces per-call
regex tokenisation with one C-level byte pass and replaces generator
resumption per candidate with prebuilt tuples.

Three sections land in the JSON artifact
(``benchmarks/results/BENCH_compiled_index.json``, or
``BENCH_compiled_index_quick.json`` under ``BENCH_QUICK=1``):

* ``produce`` — time to *produce* the candidate sequence per probe:
  legacy cold (regex per call, the code as PR 4 shipped it without its
  lru_cache warm), legacy warm (the lru_cache memoised best case,
  reproduced here with a local cache), and compiled.  The headline
  ratio is compiled vs legacy *warm* — the stronger baseline.
* ``iterate`` — the same probes but driving every yielded candidate,
  the match_all consumption shape.
* ``artifact`` — serialize / parse+attach / fresh-build timings for
  the snapshot artifact, plus its size.

``verdict_mismatches`` counts probes where the two paths disagreed on
either the candidate sequence or the matches (the legacy side: the
matching filters of its candidate sequence; the compiled side:
``match_all``); the benchmark asserts it is exactly zero, and CI gates
on it at tolerance 0.0.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/bench_compiled_index.py -s
"""

from __future__ import annotations

import functools
import os
import random
import time

from repro.filters.compiled import parse_artifact, serialize_artifact
from repro.filters.compiled.index import CompiledFilterIndex
from repro.filters.engine import AdblockEngine, EngineSnapshot
from repro.filters.index import FilterIndex, _url_tokens
from repro.filters.options import ContentType
from repro.history.generator import generate_history
from repro.measurement.easylist import build_easylist
from repro.web.url import parse_url

from benchmarks.conftest import (BENCH_QUICK, RESULTS_DIR, print_block,
                                 write_result)

_CORPUS_URLS = 400 if BENCH_QUICK else 2_000
_PROBE_REPEATS = 3 if BENCH_QUICK else 5

_RESULT_PATH = os.path.join(
    RESULTS_DIR, "BENCH_compiled_index_quick.json" if BENCH_QUICK else "BENCH_compiled_index.json")


def _build_lists():
    history = generate_history(seed=2015, key_bits=128)
    easylist = build_easylist(name="easylist")
    whitelist = history.tip_filter_list()
    whitelist.name = "exceptionrules"
    return [easylist, whitelist]


def _build_indexes(lists):
    """The legacy mutable index and its compiled twin, same buckets."""
    engine = AdblockEngine()
    for filter_list in lists:
        engine.subscribe(filter_list)
    legacy = engine._blocking            # FilterIndex until freeze
    assert isinstance(legacy, FilterIndex)
    compiled = CompiledFilterIndex.compile(legacy, name="blocking")
    snapshot = engine.freeze()
    return legacy, compiled, snapshot


def _build_corpus(legacy: FilterIndex) -> list[str]:
    """Deterministic URL mix: bucket hits, misses, and multi-hits."""
    rng = random.Random(2015)
    keywords = sorted(legacy._by_keyword)
    hosts = ["adserv.genericnet.com", "static.adzerk.net",
             "cdn.bannerfarm.net", "benign-nothing.org",
             "www.example-page.com", "fonts.gstatic.com"]
    paths = ["ads/unit.js", "img/logo.png", "banner/728x90.gif",
             "app/main.css", "frame.html?sr=example.com", ""]
    corpus = []
    for _ in range(_CORPUS_URLS):
        roll = rng.random()
        host = rng.choice(hosts)
        path = rng.choice(paths)
        if roll < 0.4 and keywords:          # guaranteed bucket hit
            path = rng.choice(keywords) + "/" + path
        elif roll < 0.5 and len(keywords) > 1:   # multi-bucket hit
            path = "/".join(rng.sample(keywords, 2)) + "/" + path
        elif roll < 0.55:
            host = host.upper()
        corpus.append(f"http://{host}/{path}")
    return corpus


def _best_of(fn, repeats: int = _PROBE_REPEATS) -> float:
    return min(fn() for _ in range(repeats))


def _us_per_probe(total_s: float, probes: int) -> float:
    return round(total_s / probes * 1e6, 3)


def measure_produce(legacy, compiled, corpus) -> dict:
    from repro.filters import index as index_mod

    def produce_legacy() -> float:
        start = time.perf_counter()
        for url in corpus:
            list(legacy.candidates(url))
        return time.perf_counter() - start

    def produce_compiled() -> float:
        start = time.perf_counter()
        for url in corpus:
            compiled.candidates(url)
        return time.perf_counter() - start

    cold_s = _best_of(produce_legacy)
    # Reproduce the PR-4 memoised best case: tokenisation through a
    # warm 8192-entry lru_cache, exactly the shape this PR deleted.
    memo = functools.lru_cache(maxsize=8192)(_url_tokens)
    saved = index_mod._url_tokens
    index_mod._url_tokens = memo
    try:
        produce_legacy()                    # warm the memo
        warm_s = _best_of(produce_legacy)
    finally:
        index_mod._url_tokens = saved
    compiled_s = _best_of(produce_compiled)
    probes = len(corpus)
    return {
        "legacy_cold_us": _us_per_probe(cold_s, probes),
        "legacy_warm_us": _us_per_probe(warm_s, probes),
        "compiled_us": _us_per_probe(compiled_s, probes),
        "speedup_vs_warm": round(warm_s / compiled_s, 2),
        "speedup_vs_cold": round(cold_s / compiled_s, 2),
    }


def measure_iterate(legacy, compiled, corpus) -> dict:
    def drive(index) -> float:
        start = time.perf_counter()
        for url in corpus:
            for _ in index.candidates(url):
                pass
        return time.perf_counter() - start

    legacy_s = _best_of(lambda: drive(legacy))
    compiled_s = _best_of(lambda: drive(compiled))
    probes = len(corpus)
    return {
        "legacy_us": _us_per_probe(legacy_s, probes),
        "compiled_us": _us_per_probe(compiled_s, probes),
        "speedup": round(legacy_s / compiled_s, 2),
    }


def count_mismatches(legacy, compiled, corpus) -> int:
    mismatches = 0
    for url in corpus:
        host = parse_url(url).host
        legacy_seq = list(legacy.candidates(url))
        compiled_seq = list(compiled.candidates(url))
        if [f.text for f in legacy_seq] != [f.text for f in compiled_seq]:
            mismatches += 1
            continue
        call = (url, ContentType.SCRIPT, "www.example-page.com", host)
        if ([f for f in legacy_seq if f.matches(*call)]
                != compiled.match_all(*call)):
            mismatches += 1
    return mismatches


def measure_artifact(snapshot: EngineSnapshot, lists) -> dict:
    fingerprint = "bench123"

    def save() -> float:
        start = time.perf_counter()
        serialize_artifact(snapshot, fingerprint=fingerprint)
        return time.perf_counter() - start

    blob = serialize_artifact(snapshot, fingerprint=fingerprint)

    def load() -> float:
        start = time.perf_counter()
        parse_artifact(blob).build_snapshot(lists)
        return time.perf_counter() - start

    def fresh() -> float:
        start = time.perf_counter()
        EngineSnapshot.build(lists)
        return time.perf_counter() - start

    save_s = _best_of(save, 3)
    load_s = _best_of(load, 3)
    fresh_s = _best_of(fresh, 3)
    return {
        "bytes": len(blob),
        "save_ms": round(save_s * 1e3, 3),
        "load_ms": round(load_s * 1e3, 3),
        "fresh_build_ms": round(fresh_s * 1e3, 3),
        "load_speedup": round(fresh_s / load_s, 2) if load_s else 0.0,
    }


def test_compiled_index_benchmark():
    lists = _build_lists()
    legacy, compiled, snapshot = _build_indexes(lists)
    corpus = _build_corpus(legacy)

    mismatches = count_mismatches(legacy, compiled, corpus)
    produce = measure_produce(legacy, compiled, corpus)
    iterate = measure_iterate(legacy, compiled, corpus)
    artifact = measure_artifact(snapshot, lists)

    payload = {
        "benchmark": "compiled_index",
        "quick": BENCH_QUICK,
        "corpus": {
            "urls": len(corpus),
            "filters": len(legacy),
            "probe_repeats": _PROBE_REPEATS,
        },
        "index": {
            name: getattr(snapshot, name).stats()
            for name in ("blocking", "exceptions")
        },
        "produce": produce,
        "iterate": iterate,
        "verdict_mismatches": mismatches,
        "artifact": artifact,
    }
    write_result(_RESULT_PATH, payload)

    print_block(
        f"compiled index ({len(legacy):,} filters, {len(corpus)} URLs): "
        f"produce {produce['legacy_warm_us']}us (warm legacy) -> "
        f"{produce['compiled_us']}us = {produce['speedup_vs_warm']}x "
        f"(cold {produce['legacy_cold_us']}us = "
        f"{produce['speedup_vs_cold']}x)\n"
        f"iterate {iterate['legacy_us']}us -> {iterate['compiled_us']}us "
        f"= {iterate['speedup']}x; verdict mismatches: {mismatches}\n"
        f"artifact {artifact['bytes']:,} B: save {artifact['save_ms']}ms, "
        f"load {artifact['load_ms']}ms vs fresh build "
        f"{artifact['fresh_build_ms']}ms = {artifact['load_speedup']}x\n"
        f"results -> {_RESULT_PATH}")

    assert mismatches == 0, f"{mismatches} verdict mismatches"
    floor = 3.0 if BENCH_QUICK else 10.0
    assert produce["speedup_vs_warm"] >= floor, (
        f"compiled candidates() produce speedup "
        f"{produce['speedup_vs_warm']}x below the {floor}x floor")
    assert iterate["speedup"] >= 1.0, (
        f"iterating compiled candidates regressed: {iterate['speedup']}x")
