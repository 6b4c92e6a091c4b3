"""Unit tests for lease generation and the guided lease size."""

import pytest

from repro.parallel.leases import Lease, generate_leases, guided_lease_size


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
