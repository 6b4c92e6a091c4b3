"""Bounded work leases for the supervised work-stealing scheduler.

A static round-robin deal of the whole unit list before any worker
starts would let a straggler — or a dead worker — own a fixed 1/N of
the run forever.  The work-stealing scheduler
(:mod:`repro.parallel.scheduler`) instead hands out **leases**: small
batches of globally-indexed units granted to one worker at a time.  A
lease is the unit of both load balancing (a slow worker simply claims
fewer leases) and failure recovery (a dead worker forfeits exactly its
outstanding lease, nothing more).

Two pieces live here:

* :func:`generate_leases` — the pure batching function behind the
  scheduler's deterministic makespan model
  (:func:`~repro.parallel.scheduler.simulate_steal_makespan`); the
  in-process mode grants no leases at all;
* :func:`guided_lease_size` — how many units the forked dispatcher
  grants next: up to :data:`DEFAULT_LEASE_SIZE` while much work
  remains, shrinking toward one at the tail.

Both are deliberately free of process machinery so they can be tested
(and reasoned about) without forking anything.  Which lease a worker
holds, and how much of it has reported back, is the worker's handle's
business (:class:`~repro.parallel.supervisor.WorkerHandle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["Lease", "DEFAULT_LEASE_SIZE", "generate_leases",
           "guided_lease_size"]

#: The largest lease a worker is granted (``--lease-size``).  Every
#: forked lease costs a grant message, a lease-log append, a shard-journal
#: ``fsync`` and a ``lease_done`` round trip during which the worker sits
#: idle, so small leases make two workers slower than one; see "Work
#: stealing and the lease-size trade-off" in ``docs/PERFORMANCE.md``.
DEFAULT_LEASE_SIZE = 32


@dataclass(frozen=True, slots=True)
class Lease:
    """A bounded batch of globally-indexed units granted to one worker."""

    lease_id: int
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def generate_leases(indices: Sequence[int],
                    lease_size: int) -> list[Lease]:
    """Chunk ``indices`` into consecutive leases of ``lease_size``.

    Leases preserve the input order — the scheduler always feeds the
    lowest pending indices first, so grants stay close to the in-order
    flush frontier and the reorder buffer stays small.  Zero items mean
    zero leases, whatever ``lease_size`` is:

    >>> [lease.indices for lease in generate_leases([0, 1, 2, 3, 4], 2)]
    [(0, 1), (2, 3), (4,)]
    >>> generate_leases([], 3)
    []
    >>> generate_leases([], 0)
    []
    """
    if not indices:
        return []
    if lease_size < 1:
        raise ValueError(f"lease_size must be >= 1, got {lease_size}")
    return [Lease(lease_id, tuple(indices[start:start + lease_size]))
            for lease_id, start in enumerate(
                range(0, len(indices), lease_size))]


def guided_lease_size(pending: int, workers: int, cap: int) -> int:
    """Units in the next forked grant: guided self-scheduling, capped.

    ``ceil(pending / (2 * workers))`` bounded to ``[1, cap]``
    (Polychronopoulos & Kuck, IEEE TC 1987).  While much work remains a
    grant is a full ``cap``, which amortises the fixed per-lease cost;
    as the queue drains the grants shrink toward one unit, so the last
    leases still spread over every worker and no worker is left holding
    a long tail while the others idle:

    >>> [guided_lease_size(n, workers=2, cap=32) for n in (525, 128, 9, 1)]
    [32, 32, 3, 1]
    """
    return max(1, min(cap, -(-pending // (2 * workers))))
