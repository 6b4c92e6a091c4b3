"""repro.parallel — deterministic shared-nothing parallel execution.

The survey crawl is embarrassingly parallel per target, but naive
parallelism would destroy the repo's core guarantee: byte-identical
results for a given seed.  This subpackage provides parallelism that
*keeps* the guarantee:

* :mod:`repro.parallel.rng` — pure per-unit RNG derivation, so no unit's
  randomness depends on execution order;
* :mod:`repro.parallel.caches` — a registry of process-local
  ``lru_cache`` tables cleared across ``fork`` (bounded per-worker
  memory, per-worker cache statistics);
* :mod:`repro.parallel.leases` — bounded work leases and the guided
  lease size of each forked grant;
* :mod:`repro.parallel.supervisor` — worker lifecycle: spawn, heartbeat
  deadlines, exit reaping, restart budget, deterministic
  :class:`~repro.parallel.supervisor.WorkerCrashInjector`; each
  worker's handle records the lease it holds and how many of its units
  have reported back;
* :mod:`repro.parallel.scheduler` — the survey's one crawl executor,
  supervised work stealing: in-process for one worker, forked
  otherwise, with shard journals that merge into the standard
  checkpoint format, lease recovery from dead/wedged workers,
  poison-unit quarantine, and a streaming in-order flush with
  backpressure.

Import note: this ``__init__`` re-exports only the dependency-free core
(rng, caches, leases, supervisor), each resolved on first access.
:mod:`repro.parallel.scheduler` imports the web and state layers — and
those layers import :mod:`repro.parallel.caches` — so the executor is
imported from its module
(``from repro.parallel.scheduler import run_stealing_survey``).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".caches": (
        "process_cache_stats", "register_process_cache", "registered_caches",
        "reset_process_caches",
    ),
    ".leases": ("Lease", "generate_leases"),
    ".rng": ("derive_rng", "derive_seed"),
    ".supervisor": (
        "POISON_EXIT_CODE", "Supervisor", "WorkerCrashInjector",
        "WorkerHandle",
    ),
})
