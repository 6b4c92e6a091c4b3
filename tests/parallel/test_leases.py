"""Unit tests for lease generation and the dispatcher's lease ledger."""

import pytest

from repro.parallel.leases import (Lease, LeaseLedger, generate_leases,
                                   guided_lease_size)


class TestGenerateLeases:
    def test_chunks_preserve_order(self):
        leases = generate_leases([3, 1, 4, 1, 5], 2)
        assert [lease.indices for lease in leases] == \
            [(3, 1), (4, 1), (5,)]
        assert [lease.lease_id for lease in leases] == [0, 1, 2]

    def test_exact_multiple_has_no_runt_lease(self):
        leases = generate_leases(list(range(6)), 3)
        assert [len(lease) for lease in leases] == [3, 3]

    def test_lease_size_one(self):
        leases = generate_leases([7, 8], 1)
        assert [lease.indices for lease in leases] == [(7,), (8,)]

    def test_empty_input_yields_no_leases(self):
        assert generate_leases([], 3) == []

    def test_empty_input_wins_over_invalid_lease_size(self):
        assert generate_leases([], 0) == []

    def test_invalid_lease_size_rejected(self):
        with pytest.raises(ValueError):
            generate_leases([1], 0)

    def test_lease_is_immutable(self):
        lease = Lease(0, (1, 2))
        with pytest.raises(AttributeError):
            lease.indices = (3,)


def _grant_sizes(pending: int, workers: int, cap: int) -> list[int]:
    """Every grant a dispatcher makes while ``pending`` units drain."""
    sizes = []
    while pending:
        size = guided_lease_size(pending, workers, cap)
        sizes.append(size)
        pending -= size
    return sizes


class TestGuidedLeaseSize:
    def test_perfbench_sized_run_at_two_workers(self):
        """525 units per configuration (perfbench ``survey-steal``): 13
        full leases, then a tail that halves toward single units."""
        assert _grant_sizes(525, workers=2, cap=32) == (
            [32] * 13 + [28, 21, 15, 12, 9, 6, 5, 4, 3, 2, 1, 1, 1, 1])

    def test_small_run_spreads_over_every_worker(self):
        assert _grant_sizes(10, workers=2, cap=32) == [3, 2, 2, 1, 1, 1]

    def test_never_exceeds_cap_or_pending(self):
        for pending in range(1, 300):
            for workers in (1, 2, 3, 8):
                size = guided_lease_size(pending, workers, 4)
                assert 1 <= size <= min(4, pending)

    def test_cap_one_grants_single_units(self):
        assert _grant_sizes(7, workers=2, cap=1) == [1] * 7


class TestLeaseLedger:
    def test_grant_complete_finish_lifecycle(self):
        ledger = LeaseLedger()
        lease = ledger.grant(worker=0, indices=(0, 1, 2))
        assert ledger.outstanding == 1
        assert ledger.in_flight == 3
        for index in lease.indices:
            ledger.complete(lease.lease_id, index)
        assert ledger.in_flight == 0
        ledger.finish(lease.lease_id)
        assert ledger.outstanding == 0

    def test_lease_ids_are_sequential(self):
        ledger = LeaseLedger()
        first = ledger.grant(worker=0, indices=(0,))
        second = ledger.grant(worker=1, indices=(1,))
        assert (first.lease_id, second.lease_id) == (0, 1)

    def test_empty_grant_rejected(self):
        with pytest.raises(ValueError):
            LeaseLedger().grant(worker=0, indices=())

    def test_revoke_returns_incomplete_lowest_first(self):
        ledger = LeaseLedger()
        lease = ledger.grant(worker=0, indices=(4, 5, 6, 7))
        ledger.complete(lease.lease_id, 5)
        assert ledger.revoke(lease.lease_id) == (4, 6, 7)
        assert ledger.outstanding == 0

    def test_revoke_unknown_lease_is_harmless(self):
        assert LeaseLedger().revoke(99) == ()

    def test_complete_after_revoke_is_ignored(self):
        """A dead worker's last buffered message must not corrupt the
        ledger after its lease was revoked and requeued."""
        ledger = LeaseLedger()
        lease = ledger.grant(worker=0, indices=(0, 1))
        ledger.revoke(lease.lease_id)
        ledger.complete(lease.lease_id, 0)  # late echo; no effect
        assert ledger.outstanding == 0
        assert ledger.in_flight == 0

    def test_finish_with_incomplete_units_rejected(self):
        ledger = LeaseLedger()
        lease = ledger.grant(worker=0, indices=(0, 1))
        ledger.complete(lease.lease_id, 0)
        with pytest.raises(ValueError, match="incomplete"):
            ledger.finish(lease.lease_id)

    def test_leases_of_tracks_per_worker_holdings(self):
        ledger = LeaseLedger()
        a = ledger.grant(worker=0, indices=(0,))
        b = ledger.grant(worker=1, indices=(1,))
        c = ledger.grant(worker=0, indices=(2,))
        assert ledger.leases_of(0) == (a.lease_id, c.lease_id)
        assert ledger.leases_of(1) == (b.lease_id,)
        ledger.revoke(a.lease_id)
        assert ledger.leases_of(0) == (c.lease_id,)
