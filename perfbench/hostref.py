"""A fixed reference workload that gauges the host's current speed.

The benchmark runs on shared machines whose speed drifts, as
neighbours come and go, by up to a factor of two over minutes.  Survey
passes are CPU-bound Python, so their throughput drifts with it.  This
module times a fixed piece of work of the same kind as the survey's
hot path -- a method call per rule, an integer mask test, a
case-insensitive compiled regex search over a URL, dict and string
work -- that is part of the benchmark, never of the program.  A change
to ``src/`` cannot move it; a slower host moves it and the survey
alike.

:func:`sample` times chunks on every CPU the process may run on.  The
CPUs of one machine do not run at one speed: on a 2-core container one
core often ran a chunk in 0.31 s while the other took 0.53 s, and which
core is the slow one changes from minute to minute.  A sample pins the
calling thread to each allowed CPU in turn, times a chunk there (two on
a single CPU), and records the time of a chunk at the CPUs' mean speed.
The survey workloads sample after every set-up repeat, before the first
pass and after every pass, so the samples cover the whole run; the
serve workload samples around its daemon boots.  ``survey-inline``
pins its whole run to one CPU (:func:`pin_one_cpu`), so the chunks are
timed on the core the serial survey runs on; ``survey-steal``'s workers
share out the work across all CPUs, which is what the mean speed
stands for.  Set-up time and survey throughput are then rescaled to a
host on which a chunk takes :data:`NOMINAL_S`.  One chunk swings by 15%
and more from the next; the median over a run follows the drift over
minutes that matters here.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import time

__all__ = ["NOMINAL_S", "chunk_s", "pin_one_cpu", "sample", "slowdown"]

#: The time of one chunk on the reference host, in seconds: roughly
#: what a quiet 2-core container does.  Only the scale of the rescaled
#: metrics depends on it.
NOMINAL_S = 0.3

_WORDS = ("ad", "ads", "banner", "track", "pixel", "img", "static", "cdn",
          "js", "css", "media", "sponsor", "click", "promo", "widget",
          "api", "beacon", "social", "video", "frame", "count", "stats",
          "assets", "content", "page", "view", "tag", "sync", "load", "data")
_TLDS = ("com", "net", "org", "de", "io")
_SPLIT = re.compile(r"[^a-z0-9]+").split


class _Rule:
    __slots__ = ("mask", "regex", "domains")

    def __init__(self, mask: int, regex, domains: frozenset) -> None:
        self.mask = mask
        self.regex = regex
        self.domains = domains

    def hit(self, url: str, kind: int, host: str) -> bool:
        if not self.mask & kind:
            return False
        if self.regex.search(url) is None:
            return False
        return not self.domains or host in self.domains


def _inputs():
    """A token index over 6,000 rules and 3,000 URLs: several MB of
    objects, so the chunk feels cache pressure as the survey does."""
    rng = random.Random(2015)
    tokens = [f"{word}{i}" for word in _WORDS for i in range(40)]
    hosts = [f"{rng.choice(tokens)}.{rng.choice(_WORDS)}.{rng.choice(_TLDS)}"
             for _ in range(400)]
    index: dict[str, list[_Rule]] = {}
    pairs = []
    for _ in range(6000):
        a, b = rng.choice(tokens), rng.choice(tokens)
        pairs.append((a, b))
        regex = re.compile(rf"[/.?=&-]{a}[-_/.]?{b}(?:[/?&.]|$)",
                           re.IGNORECASE)
        domains = (frozenset(rng.sample(hosts, 2)) if rng.random() < 0.2
                   else frozenset())
        index.setdefault(a, []).append(
            _Rule(rng.getrandbits(10) | 1, regex, domains))
    urls = []
    for _ in range(3000):
        host = rng.choice(hosts)
        path = [rng.choice(tokens) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.3:
            path.extend(rng.choice(pairs))
        query = "&".join(f"{rng.choice(tokens)}={rng.randrange(10 ** 6)}"
                         for _ in range(rng.randrange(0, 3)))
        urls.append((f"https://{host}/{'/'.join(path)}?{query}", host,
                     1 << rng.randrange(10)))
    return index, urls


_INPUTS = None


def _work() -> int:
    index, urls = _INPUTS
    hits = 0
    seen: dict[str, int] = {}
    for url, host, kind in urls:
        lowered = url.lower()
        for token in _SPLIT(lowered):
            for rule in index.get(token, ()):
                if rule.hit(lowered, kind, host):
                    hits += 1
                    seen[host] = seen.get(host, 0) + 1
    return hits * 1000 + len(seen)


#: Repetitions of :func:`_work` in one chunk.
_REPEATS = 6
#: What :func:`_work` returns; a different value means broken inputs.
_EXPECTED = None


def chunk_s() -> float:
    """Wall time of one fixed chunk of reference work, in seconds."""
    global _INPUTS, _EXPECTED
    if _INPUTS is None:
        _INPUTS = _inputs()
        _EXPECTED = _work()
    start = time.perf_counter()
    for _ in range(_REPEATS):
        if _work() != _EXPECTED:
            raise RuntimeError("reference work gave a different answer")
    return time.perf_counter() - start


#: At least this many chunks in one :func:`sample`.
CHUNKS_PER_SAMPLE = 2


def pin_one_cpu() -> None:
    """Restrict the calling thread, and the threads and processes it
    starts later, to its lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sample(chunks: list[float]) -> None:
    """Time a chunk on each allowed CPU in turn, repeated until at least
    :data:`CHUNKS_PER_SAMPLE` are timed; append the chunk time at the
    CPUs' mean speed, once per round."""
    allowed = os.sched_getaffinity(0)
    rounds = -(-CHUNKS_PER_SAMPLE // len(allowed))
    try:
        for _ in range(rounds):
            speed = 0.0
            for cpu in sorted(allowed):
                if len(allowed) > 1:
                    os.sched_setaffinity(0, {cpu})
                speed += 1.0 / chunk_s()
            chunks.append(len(allowed) / speed)
    finally:
        os.sched_setaffinity(0, allowed)


def slowdown(chunks: list[float]) -> float:
    """How much slower than the reference host this host ran over a
    run: the median of the sampled chunk times over :data:`NOMINAL_S`."""
    return statistics.median(chunks) / NOMINAL_S
