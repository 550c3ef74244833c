"""Unit tests for :mod:`repro.parallel.partition`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.partition import round_robin_partition


class TestRoundRobin:
    def test_basic(self):
        assert round_robin_partition([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]

    def test_alg3_semantics(self):
        """Iteration i goes to processor i mod P."""
        chunks = round_robin_partition(list(range(10)), 3)
        for w, chunk in enumerate(chunks):
            for item in chunk:
                assert item % 3 == w

    def test_fewer_items_than_workers(self):
        assert round_robin_partition([7], 4) == [[7], [], [], []]

    def test_empty(self):
        assert round_robin_partition([], 3) == [[], [], []]

    def test_single_worker(self):
        assert round_robin_partition([1, 2, 3], 1) == [[1, 2, 3]]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            round_robin_partition([1], 0)


@given(
    st.lists(st.integers(), max_size=50),
    st.integers(min_value=1, max_value=10),
)
def test_property_partitions_cover_items(items, workers):
    """Round-robin partitions the items exactly, and chunk sizes respect
    the Alg. 3 bound ceil(q/P)."""
    chunks = round_robin_partition(items, workers)
    assert len(chunks) == workers
    assert sorted(x for c in chunks for x in c) == sorted(items)
    bound = -(-len(items) // workers)
    assert all(len(c) <= bound for c in chunks)
