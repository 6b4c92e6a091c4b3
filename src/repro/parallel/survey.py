"""Shared-nothing sharded execution of the Section 5 survey crawl.

:func:`run_sharded_survey` is the parallel counterpart of
:func:`repro.web.crawlstate.journaled_survey`.  It flattens a survey's
sample groups into one globally ordered unit list, deals the pending
units round-robin into shards, and crawls each shard on a
:class:`~repro.parallel.pool.WorkPool` worker.  Results are
byte-identical to a one-worker run — for *any* worker count and any
scheduling order — because every unit is executed shared-nothing:

* its backoff jitter comes from an RNG derived purely from
  ``(fault_seed, "crawl-jitter", domain, rank)`` (see
  :mod:`repro.parallel.rng`), not from a stream shared with earlier
  targets;
* it gets a fresh circuit breaker (survey domains are distinct, so the
  serial pipeline never accumulates cross-target breaker state to
  lose);
* its simulated clock is rewound to zero, so each unit's latency is an
  exact float sum from ``t=0`` rather than a difference between two
  large accumulated clock positions;
* outcomes round-trip through the checkpoint snapshot codec before
  merging, so a live result and a journal-restored one are the same
  object shape down to the byte.

**Engine sharing.**  The parent's engine is frozen before the pool
forks, so each worker inherits the compiled filter indexes
(:mod:`repro.filters.compiled`: keyword set, prebuilt candidate
tuples) as read-only copy-on-write pages.  Workers never
write them — there is no per-worker tokeniser cache left to warm, so
the pages stay physically shared for the lifetime of the pool.

**Durability.**  When a checkpoint is given, each worker appends its
completed units to a private *shard journal*
(``<checkpoint>.shardNNN``, same checksummed format as the main
journal, each record tagged with the unit's global index).  After the
pool drains, the parent folds every unit into the main checkpoint in
global order and deletes the shard files — so a finished checkpoint is
indistinguishable from a serial one.  On resume, leftover shard
journals from a crashed run are *adopted* into the checkpoint first;
since sharding is derived from the pending set, resuming with a
different ``--workers`` count Just Works.

**Metrics.**  Each unit is crawled under a private
:class:`~repro.obs.metrics.MetricsRegistry` (when observability is on)
whose snapshot travels home with the outcome; the parent merges the
snapshots in global unit order via
:meth:`~repro.obs.metrics.MetricsRegistry.merge`, so ``--metrics-out``
totals — including float histogram sums — are reassembled identically
for every worker count.

**Traces.**  Each unit likewise runs under a private
:class:`~repro.obs.trace.Tracer` rooted at the parent's enclosing span
(deterministic span IDs namespaced by global unit index — see
:mod:`repro.obs.ids`) and timed on the unit's *simulated* clock, which
rewinds to zero per unit.  The unit's span records travel home tagged
with the worker that ran them; the parent strips the worker tag —
execution placement is not a result — and adopts the shards into its
own trace in global unit order, exactly mirroring the metric-snapshot
merge.  A pooled ``--trace`` export is therefore one coherent,
parent-linked trace, byte-identical for every ``--workers`` count.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    ProgressTracker,
    Tracer,
)
from repro.parallel.pool import WorkPool, shard_round_robin
from repro.parallel.rng import derive_rng
from repro.state.checkpoint import Checkpoint
from repro.state.journal import JournalError, RunJournal, replay_journal
from repro.web.crawler import Crawler, CrawlOutcome, CrawlTarget
from repro.web.crawlstate import restore_outcome, snapshot_outcome, unit_key
from repro.web.resilience import CircuitBreaker

__all__ = [
    "run_sharded_survey",
    "adopt_shard_journals",
    "shard_journal_path",
    "list_shard_journals",
]

#: Purpose label mixed into every derived per-unit rng seed.
_JITTER_LABEL = "crawl-jitter"

_SHARD_SUFFIX = ".shard"


# -- shard journals --------------------------------------------------------

def shard_journal_path(checkpoint_path: str, shard_index: int) -> str:
    """Where shard ``shard_index`` journals its completed units."""
    return f"{checkpoint_path}{_SHARD_SUFFIX}{shard_index:03d}"


def list_shard_journals(checkpoint_path: str) -> list[str]:
    """Existing shard journal files next to ``checkpoint_path``, sorted."""
    directory = os.path.dirname(checkpoint_path) or "."
    prefix = os.path.basename(checkpoint_path) + _SHARD_SUFFIX
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(
        os.path.join(directory, name) for name in names
        if name.startswith(prefix) and name[len(prefix):].isdigit())


def adopt_shard_journals(checkpoint: Checkpoint, scope: str) -> int:
    """Fold leftover shard journals from a crashed run into ``checkpoint``.

    Units are adopted in global-index order so the main journal reads
    exactly as if the crashed run had merged them itself; units the
    checkpoint already has (the crash hit mid-merge) are skipped.  A
    shard file is deleted once it holds nothing belonging to another
    scope; an unreadable (corrupt) shard is discarded — its units are
    simply re-crawled, deterministically.

    Returns the number of units adopted.
    """
    adopted = 0
    for path in list_shard_journals(checkpoint.path):
        try:
            records, _truncated = replay_journal(path)
        except JournalError:
            records = []
        units = [record for record in records
                 if record.get("kind") == "unit"]
        mine = sorted((unit for unit in units if unit["scope"] == scope),
                      key=lambda unit: unit["index"])
        for unit in mine:
            if not checkpoint.is_done(scope, unit["key"]):
                checkpoint.record(scope, unit["key"], unit["payload"])
                adopted += 1
        if all(unit["scope"] == scope for unit in units):
            os.remove(path)
    if adopted:
        checkpoint.sync()
    return adopted


# -- per-unit shared-nothing execution -------------------------------------

def _crawl_units(crawler: Crawler,
                 units: Sequence[tuple[int, str, CrawlTarget]],
                 *, jitter_seed: int, collect_metrics: bool,
                 collect_spans: bool, trace_context: tuple[str, int],
                 record_unit: Callable[[int, str, dict], None]) -> list:
    """Crawl ``units`` shared-nothing; return mergeable result tuples.

    Each returned tuple is ``(index, key, payload, metrics, spans)``
    where ``payload`` is the checkpoint unit payload, ``metrics`` is
    the unit's registry snapshot (``None`` with metrics off), and
    ``spans`` is the unit's span-record shard (``None`` with tracing
    off).  The payload's ``state`` is empty by design: shared-nothing
    units have no cross-visit crawler state for a resume to rewind.

    ``trace_context`` is ``(parent_span_id, depth)`` of the parent
    process's enclosing span: each unit's private tracer is rooted
    there, with the unit's global index as its root ordinal namespace,
    so its span IDs come out identical no matter which worker runs it.
    """
    from repro.obs.export import span_records

    trace_parent, trace_depth = trace_context
    results = []
    for index, group_name, target in units:
        rng = derive_rng(jitter_seed, _JITTER_LABEL, target.domain,
                         target.rank)
        breaker = CircuitBreaker()
        # Latencies are clock *deltas*; rewinding to zero per unit makes
        # them exact sums from t=0, independent of what earlier units on
        # this worker consumed (float addition is not associative).
        crawler.clock.rewind()
        metrics = None
        spans = None
        if OBS.enabled:
            previous = (OBS.registry, OBS.tracer, OBS.enabled)
            registry = MetricsRegistry() if collect_metrics else NULL_REGISTRY
            # The unit tracer runs on the unit's simulated clock: its
            # readings (and so the exported spans) are deterministic,
            # unlike wall time, which is what byte-identity across
            # worker counts requires.
            tracer = (Tracer(clock=crawler.clock.now,
                             root_parent_id=trace_parent,
                             root_depth=trace_depth,
                             root_ordinal_ns=f"{index}:")
                      if collect_spans else NULL_TRACER)
            OBS.registry = registry
            OBS.tracer = tracer
            OBS.enabled = registry.enabled or tracer.enabled
            try:
                outcome = crawler.visit_target(target, rng=rng,
                                               breaker=breaker,
                                               unit=index)
            finally:
                OBS.registry, OBS.tracer, OBS.enabled = previous
            if collect_metrics:
                metrics = registry.snapshot()
            if collect_spans:
                spans = span_records(tracer)
        else:
            outcome = crawler.visit_target(target, rng=rng, breaker=breaker)
        key = unit_key(group_name, target)
        payload = {"group": group_name,
                   "outcome": snapshot_outcome(outcome),
                   "state": {}}
        record_unit(index, key, payload)
        results.append((index, key, payload, metrics, spans))
    return results


# -- the sharded survey ----------------------------------------------------

def run_sharded_survey(groups, *, crawler_factory: Callable[[], Crawler],
                       workers: int, jitter_seed: int = 0,
                       checkpoint: Checkpoint | None = None,
                       scope: str = "survey",
                       scope_config: dict | None = None
                       ) -> dict[str, list[CrawlOutcome]]:
    """Crawl ``groups`` across ``workers`` shared-nothing workers.

    ``crawler_factory`` must build an equivalent crawler on every call
    (each worker constructs its own); ``jitter_seed`` roots the
    per-unit rng derivation and should be the survey's ``fault_seed``.
    With a ``checkpoint``, completed units are restored instead of
    re-crawled and new ones are journaled crash-safely (see module
    docstring).  Returns outcomes per group, in target order —
    byte-identical for any ``workers`` value.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    units: list[tuple[int, str, CrawlTarget]] = [
        (index, group.name, target)
        for index, (group, target) in enumerate(
            (group, target) for group in groups for target in group.targets)]
    outcomes: dict[int, CrawlOutcome] = {}

    checkpoint_path = None
    if checkpoint is not None:
        checkpoint_path = checkpoint.path
        checkpoint.begin_scope(scope, scope_config)
        adopt_shard_journals(checkpoint, scope)
        index_by_key = {unit_key(group_name, target): index
                        for index, group_name, target in units}
        for key, payload in checkpoint.completed(scope):
            index = index_by_key.get(key)
            if index is not None:
                outcomes[index] = restore_outcome(payload["outcome"])

    pending = [unit for unit in units if unit[0] not in outcomes]
    shards = shard_round_robin(pending, max(1, min(workers, len(pending))))
    collect_metrics = OBS.registry.enabled
    collect_spans = OBS.tracer.enabled
    parent_span = OBS.tracer.current() if collect_spans else None
    trace_context = ((parent_span.span_id, parent_span.depth + 1)
                     if parent_span is not None else ("", 0))

    def crawl_shard(shard_index: int, shard_units) -> list:
        crawler = crawler_factory()
        journal = None
        if checkpoint_path is not None:
            journal = RunJournal.create(
                shard_journal_path(checkpoint_path, shard_index),
                {"shard": shard_index, "scope": scope})
        completed = 0

        def record_unit(index: int, key: str, payload: dict) -> None:
            nonlocal completed
            if journal is not None:
                journal.append({"kind": "unit", "scope": scope,
                                "key": key, "index": index,
                                "payload": payload})
            completed += 1

        try:
            results = _crawl_units(crawler, shard_units,
                                   jitter_seed=jitter_seed,
                                   collect_metrics=collect_metrics,
                                   collect_spans=collect_spans,
                                   trace_context=trace_context,
                                   record_unit=record_unit)
        except BaseException as exc:
            # Let WorkerError report how much of the shard was done
            # (journaled) before the failure.
            try:
                exc.completed_units = completed
            except (AttributeError, TypeError):
                pass
            raise
        finally:
            if journal is not None:
                journal.close()
        # Tag the shard's span records with the worker that produced
        # them — crash forensics read the raw shards; the parent strips
        # the tag at adoption because placement is not a result.
        for _index, _key, _payload, _metrics, spans in results:
            if spans:
                for record in spans:
                    record["worker"] = shard_index
        return results

    shard_results = (WorkPool(workers).map_shards(shards, crawl_shard)
                     if pending else [])

    merged = sorted((result for shard in shard_results for result in shard),
                    key=lambda result: result[0])
    # Progress gauges + simulated-clock ticks advance in global unit
    # order — the same order as the metric merge — so they match the
    # steal scheduler's and any other worker count's byte for byte.
    progress = (ProgressTracker(scope, len(units), done=len(outcomes))
                if OBS.registry.enabled or OBS.timeseries.enabled
                else None)
    for index, key, payload, metrics, spans in merged:
        if checkpoint is not None:
            checkpoint.record(scope, key, payload)
        if collect_metrics and metrics is not None:
            OBS.registry.merge(metrics)
        if collect_spans and spans:
            OBS.tracer.adopt(spans)
        outcomes[index] = restore_outcome(payload["outcome"])
        if progress is not None:
            progress.step(outcomes[index].latency_ms)
    if checkpoint is not None:
        checkpoint.sync()
        for shard_index in range(len(shards)):
            path = shard_journal_path(checkpoint.path, shard_index)
            if os.path.exists(path):
                os.remove(path)

    outcomes_by_group: dict[str, list[CrawlOutcome]] = {
        group.name: [] for group in groups}
    for index, group_name, _target in units:
        outcomes_by_group[group_name].append(outcomes[index])
    return outcomes_by_group
