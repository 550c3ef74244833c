"""Unit tests for :mod:`repro.model.instance`."""

from __future__ import annotations

import copy
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.instance import Instance
from repro.model.qinstance import QInstance

from conftest import medium_instances


class TestConstruction:
    def test_basic_fields(self):
        inst = Instance([7, 3, 5, 5], num_machines=2)
        assert inst.processing_times == (7, 3, 5, 5)
        assert inst.num_machines == 2
        assert inst.num_jobs == 4
        assert inst.total_work == 20
        assert inst.max_time == 7

    def test_accepts_any_iterable(self):
        inst = Instance(iter([1, 2, 3]), num_machines=1)
        assert inst.processing_times == (1, 2, 3)

    def test_accepts_numpy_integers(self):
        import numpy as np

        inst = Instance(np.array([3, 4], dtype=np.int32), num_machines=2)
        assert inst.processing_times == (3, 4)
        assert all(isinstance(t, int) for t in inst.processing_times)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one job"):
            Instance([], num_machines=2)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError, match="positive"):
            Instance([3, 0], num_machines=1)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="positive"):
            Instance([-1], num_machines=1)

    def test_rejects_fractional_time(self):
        with pytest.raises(TypeError):
            Instance([1.5], num_machines=1)

    def test_accepts_integral_float(self):
        assert Instance([2.0, 3.0], num_machines=1).processing_times == (2, 3)

    def test_rejects_bool_time(self):
        with pytest.raises(TypeError):
            Instance([True], num_machines=1)

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError, match="num_machines"):
            Instance([1], num_machines=0)

    def test_rejects_string_times(self):
        with pytest.raises(TypeError):
            Instance(["a"], num_machines=1)

    def test_immutable(self):
        inst = Instance([1, 2], num_machines=1)
        with pytest.raises(AttributeError):
            inst.num_machines = 5  # type: ignore[misc]

    def test_equality_and_hash(self):
        a = Instance([1, 2, 3], 2)
        b = Instance((1, 2, 3), 2)
        c = Instance([1, 2, 3], 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestBounds:
    def test_trivial_lower_bound_average_dominates(self):
        inst = Instance([5, 5, 5, 5], num_machines=2)
        assert inst.trivial_lower_bound() == 10

    def test_trivial_lower_bound_max_dominates(self):
        inst = Instance([100, 1, 1], num_machines=3)
        assert inst.trivial_lower_bound() == 100

    def test_lower_bound_ceils_average(self):
        inst = Instance([5, 5, 5], num_machines=2)  # 15/2 = 7.5 -> 8
        assert inst.trivial_lower_bound() == 8

    def test_upper_bound(self):
        inst = Instance([5, 5, 5], num_machines=2)
        assert inst.trivial_upper_bound() == 8 + 5

    @given(medium_instances())
    def test_bounds_order(self, inst: Instance):
        assert inst.trivial_lower_bound() <= inst.trivial_upper_bound()

    @given(medium_instances())
    def test_lower_bound_formula(self, inst: Instance):
        expected = max(
            math.ceil(inst.total_work / inst.num_machines), inst.max_time
        )
        assert inst.trivial_lower_bound() == expected


class TestHelpers:
    def test_from_multiset(self):
        inst = Instance.from_multiset({5: 2, 9: 1}, num_machines=2)
        assert sorted(inst.processing_times) == [5, 5, 9]

    def test_from_multiset_pairs(self):
        inst = Instance.from_multiset([(3, 1), (2, 2)], num_machines=1)
        assert sorted(inst.processing_times) == [2, 2, 3]

    def test_from_multiset_rejects_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            Instance.from_multiset({5: -1}, num_machines=1)

    def test_with_machines(self):
        inst = Instance([1, 2], num_machines=1)
        other = inst.with_machines(3)
        assert other.num_machines == 3
        assert other.processing_times == inst.processing_times

    def test_sorted_jobs_desc_ties_by_index(self):
        inst = Instance([3, 5, 3, 5], num_machines=2)
        assert inst.sorted_jobs_desc() == [1, 3, 0, 2]

    @given(medium_instances())
    def test_sorted_jobs_desc_is_permutation(self, inst: Instance):
        order = inst.sorted_jobs_desc()
        assert sorted(order) == list(range(inst.num_jobs))
        times = [inst.processing_times[j] for j in order]
        assert times == sorted(times, reverse=True)

    def test_average_load(self):
        inst = Instance([3, 4, 5], num_machines=2)
        assert inst.average_load == 6.0


class TestSlots:
    """Instances use ``__slots__`` (no per-object ``__dict__``): a service
    retains one per answered request.  Copying, pickling, hashing and
    equality must behave as for a plain frozen dataclass, cached
    aggregates included."""

    @pytest.mark.parametrize(
        "inst",
        [Instance([7, 3, 5, 5], 2), QInstance([6, 4, 2], speeds=[2, 1])],
        ids=["p", "q"],
    )
    def test_round_trips_keep_fields_and_identity(self, inst):
        assert not hasattr(inst, "__dict__")
        for copy_ in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
            assert copy_ == inst
            assert hash(copy_) == hash(inst)
            assert copy_.total_work == inst.total_work
            assert copy_.max_time == inst.max_time
        assert len({inst, pickle.loads(pickle.dumps(inst))}) == 1

    def test_stays_frozen(self):
        inst = Instance([7, 3], 2)
        with pytest.raises(AttributeError):
            inst.num_machines = 3  # type: ignore[misc]
