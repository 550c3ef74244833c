"""The reference transcription of Algorithm 1 versus the modular pipeline.

If these tests fail, either the modular code drifted from the paper or
the transcription has a bug — both worth knowing immediately.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings

from repro.core.ptas import ptas
from repro.core.reference import _dp, algorithm1
from repro.exact.brute import brute_force
from repro.model.instance import Instance

from conftest import small_instances


class TestReferenceAlgorithm:
    def test_runs_on_fixture(self, small_instance):
        schedule = algorithm1(small_instance, 0.3)
        assert schedule.is_valid()

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            algorithm1(Instance([1], 1), 0.0)

    def test_guarantee(self, small_instance):
        opt = brute_force(small_instance).makespan
        assert algorithm1(small_instance, 0.3).makespan <= 1.3 * opt + 1e-9

    def test_single_machine(self):
        inst = Instance([4, 7, 2], 1)
        assert algorithm1(inst, 0.3).makespan == 13

    def test_k1_degenerates_to_lpt(self):
        from repro.algorithms.lpt import lpt

        inst = Instance([8, 7, 6, 5, 4, 3], 2)
        assert algorithm1(inst, 1.5).makespan == lpt(inst).makespan

    def test_dp_restores_the_recursion_limit(self):
        """A deep recursion (one frame per machine) lifts the limit for
        the call only."""
        before = sys.getrecursionlimit()
        opt, slots = _dp((3,), (1500,), 3)
        assert opt == 1500 and len(slots) == 1500
        assert sys.getrecursionlimit() == before


class TestAgreementWithModularPipeline:
    @pytest.mark.parametrize(
        "times,m",
        [
            ([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], 3),
            ([10, 10, 9, 9, 8, 8], 2),
            ([13, 11, 7, 5, 3, 2, 2], 4),
            ([20, 1, 1, 1, 1, 1, 1], 2),
            ([6, 6, 6, 6, 6], 5),
            ([17, 13, 11, 9, 8, 7, 5, 4, 3, 2, 2, 1], 3),
        ],
    )
    def test_same_makespan_on_fixed_instances(self, times, m):
        inst = Instance(times, m)
        modular = ptas(inst, 0.3, engine="table", guarantee_fix=False)
        reference = algorithm1(inst, 0.3)
        assert reference.makespan == modular.makespan

    @given(small_instances())
    @settings(max_examples=60)
    def test_property_same_makespan(self, inst):
        """The modular pipeline and the literal transcription agree on
        every randomized small instance (both use first-fit backtracking
        and LPT short fill, so even the schedules coincide)."""
        modular = ptas(inst, 0.3, engine="table", guarantee_fix=False)
        reference = algorithm1(inst, 0.3)
        assert reference.makespan == modular.makespan
        assert reference.canonical() == modular.schedule.canonical()

    @given(small_instances())
    @settings(max_examples=30)
    def test_property_reference_loose_guarantee(self, inst):
        """The printed algorithm's honest bound: per-machine un-rounding
        error is below k * unit <= T/k + k, so the makespan stays within
        (1 + 2/k) T* + k (loose).  The tight (1+eps) bound needs the
        job-cap fix and is tested on the fixed pipeline in test_ptas."""
        opt = brute_force(inst).makespan
        k = 2  # eps = 0.5
        assert algorithm1(inst, 0.5).makespan <= (1 + 2 / k) * opt + k + 1e-9
