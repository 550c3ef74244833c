"""Tests for the bisection driver (:mod:`repro.core.bisection`)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lpt import lpt
from repro.core.bisection import _RoundingCache, bisect_target_makespan, reuse_probes
from repro.core.context import SolveContext
from repro.core.bounds import makespan_bounds
from repro.core.dp import DPProblem, DPResult, solve
from repro.core.rounding import round_instance, rounding_unit
from repro.exact.brute import brute_force
from repro.model.instance import Instance
from repro.obs import Tracer

from conftest import small_instances


def make_solver(engine: str = "table", calls: list | None = None):
    def solver(problem: DPProblem, m: int) -> DPResult:
        if calls is not None:
            calls.append(problem.target)
        return solve(problem, engine, limit=m)

    return solver


class TestBisection:
    def test_terminates_with_feasible_target(self, small_instance):
        outcome = bisect_target_makespan(small_instance, 4, make_solver())
        bounds = makespan_bounds(small_instance)
        assert bounds.lower <= outcome.final_target <= bounds.upper
        assert outcome.dp_result.opt is not None
        assert outcome.dp_result.opt <= small_instance.num_machines

    def test_final_target_is_minimal_feasible(self, small_instance):
        """Every probe strictly below the final target must have been
        infeasible (monotonicity of the decision problem)."""
        outcome = bisect_target_makespan(small_instance, 4, make_solver())
        for it in outcome.iterations:
            if it.target < outcome.final_target:
                assert not it.feasible

    def test_iteration_count_logarithmic(self, small_instance):
        outcome = bisect_target_makespan(small_instance, 4, make_solver())
        width = makespan_bounds(small_instance).width
        # log2(width) + a couple of extra probes (final certification).
        assert outcome.num_iterations <= width.bit_length() + 2

    def test_trace_records_probes(self, small_instance):
        calls: list[int] = []
        outcome = bisect_target_makespan(
            small_instance, 4, make_solver(calls=calls)
        )
        assert [it.target for it in outcome.iterations] == calls

    def test_fallback_certifies_upper_bound(self):
        """If every probe below UB reports infeasible, the driver must run
        one certification probe at UB itself (which is always feasible)."""
        inst = Instance([5, 4, 3, 2], num_machines=2)
        ub = makespan_bounds(inst).upper

        def stubborn(problem: DPProblem, m: int) -> DPResult:
            if problem.target < ub:
                return DPResult(opt=None)
            return solve(problem, "table", limit=m)

        outcome = bisect_target_makespan(inst, 4, stubborn)
        assert outcome.final_target == ub
        assert outcome.iterations[-1].target == ub
        assert outcome.iterations[-1].feasible

    def test_k1_no_long_jobs(self):
        inst = Instance([5, 4, 3], num_machines=2)
        outcome = bisect_target_makespan(inst, 1, make_solver())
        assert outcome.rounded.num_long_jobs == 0
        assert outcome.dp_result.opt == 0

    @pytest.mark.parametrize("engine", ["table", "dominance"])
    def test_engines_reach_same_target(self, small_instance, engine):
        base = bisect_target_makespan(small_instance, 4, make_solver("table"))
        other = bisect_target_makespan(small_instance, 4, make_solver(engine))
        assert other.final_target == base.final_target

    def test_dominance_stops_at_the_machine_budget(self):
        """The decision ``limit`` each probe passes is an early exit for
        ``dominance``: an over-budget probe answers ``opt=None`` after at
        most ``m`` machine steps instead of solving to ``OPT``."""
        problem = DPProblem((7,), (6,), 10)  # no two jobs share a machine
        full = solve(problem, "dominance", collect_stats=True)
        capped = solve(problem, "dominance", limit=2, collect_stats=True)
        assert full.opt == 6 and capped.opt is None
        assert capped.stats.config_scans < full.stats.config_scans
        assert capped.stats.states_computed == 3  # depths 0, 1 and 2


class TestWarmStart:
    """The warm-started search must certify an equally valid target —
    the acceptance bar for the deviation.

    Equality of the *exact* final target with the faithful search is too
    strong a property: feasibility of the rounded DP is monotone only in
    the sense that every ``T >= OPT`` is feasible — below ``OPT`` the
    rounding bucket changes with ``T``, so probes in different brackets
    can legitimately converge to different (all valid, all ``<= OPT``)
    certified targets.  What must hold: both searches certify a feasible
    target inside the Eq. 1–2 bounds and never above the true optimum,
    and the warm search pays at most one extra probe (the final
    certification of a never-probed upper bound)."""

    def test_same_final_target_on_fixture(self, small_instance):
        faithful = bisect_target_makespan(small_instance, 4, make_solver())
        warm = bisect_target_makespan(
            small_instance, 4, make_solver(), ctx=SolveContext(warm_start=True)
        )
        assert warm.final_target == faithful.final_target
        assert warm.dp_result.opt == faithful.dp_result.opt

    def test_lpt_seed_tightens_first_probe(self):
        inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], num_machines=3)
        seed = min(makespan_bounds(inst).upper, lpt(inst).makespan)
        warm = bisect_target_makespan(inst, 4, make_solver(), ctx=SolveContext(warm_start=True))
        assert warm.iterations[0].upper == seed
        faithful = bisect_target_makespan(inst, 4, make_solver())
        assert warm.num_iterations <= faithful.num_iterations

    def test_faithful_search_never_reuses_roundings(self, small_instance):
        outcome = bisect_target_makespan(small_instance, 4, make_solver())
        assert outcome.rounding_reuses == 0

    def test_rounding_cache_reuses_same_bucket(self):
        # k = 2, times below: 15/14/13 are long and 2 short for both
        # targets, and ceil(20/4) == ceil(19/4) == 5 — same bucket.
        inst = Instance([15, 14, 13, 2], num_machines=3)
        cache = _RoundingCache(inst, 2)
        first = cache.round(20)
        second = cache.round(19)
        assert cache.reuses == 1
        assert second.target == 19
        assert second.unit == first.unit
        assert second.class_sizes == first.class_sizes
        assert second.class_counts == first.class_counts
        # Reuse must be indistinguishable from rounding from scratch.
        fresh = round_instance(inst, 19, 2)
        assert second.class_sizes == fresh.class_sizes
        assert second.class_counts == fresh.class_counts
        assert second.short_jobs == fresh.short_jobs

    def test_rounding_cache_rejects_bucket_change(self):
        inst = Instance([15, 14, 13, 2], num_machines=3)
        cache = _RoundingCache(inst, 2)
        cache.round(20)
        # ceil(24/4) == 6 != 5: new quantum, must re-round.
        cache.round(24)
        assert cache.reuses == 0

    @given(small_instances())
    @settings(max_examples=40)
    def test_property_warm_as_valid_as_faithful(self, inst: Instance):
        opt = brute_force(inst).makespan
        bounds = makespan_bounds(inst)
        for k in (2, 3, 4):
            faithful = bisect_target_makespan(inst, k, make_solver())
            warm = bisect_target_makespan(
                inst, k, make_solver(), ctx=SolveContext(warm_start=True)
            )
            for outcome in (faithful, warm):
                assert bounds.lower <= outcome.final_target, k
                assert outcome.final_target <= min(bounds.upper, opt), k
                # Any probe at the certified target must have been
                # feasible (the last recorded probe may be the
                # infeasible midpoint that pinned lb to a ub already
                # certified by the LPT seed).
                for it in outcome.iterations:
                    if it.target == outcome.final_target:
                        assert it.feasible, k
            # The warm interval is never wider, so the bisection loop
            # probes no more often; certifying an unprobed UB costs at
            # most one extra solve.
            assert warm.num_iterations <= faithful.num_iterations + 1, k


class TestProbeReuse:
    """:func:`reuse_probes` answers a probe whose DP an earlier probe of
    the same solve already posed, and must leave the search's outcome
    exactly as the unwrapped solver leaves it."""

    @staticmethod
    def _spied_search(inst: Instance, k: int):
        """Warm search through the wrapper, recording every probe that
        reaches the wrapper and every one that reaches the inner solver."""
        probes: list[tuple[DPProblem, int]] = []
        inner: list[tuple[DPProblem, int]] = []

        def spy(problem: DPProblem, m: int) -> DPResult:
            inner.append((problem, m))
            return solve(problem, "table", limit=m)

        tracer = Tracer()
        ctx = SolveContext(tracer=tracer)
        reusing = reuse_probes(spy, ctx)

        def outer(problem: DPProblem, m: int) -> DPResult:
            probes.append((problem, m))
            return reusing(problem, m)

        outcome = bisect_target_makespan(inst, k, outer, job_cap=k - 1, ctx=ctx)
        return outcome, probes, inner, tracer.counters

    @given(small_instances(max_time=60), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60)
    def test_property_outcome_unchanged_and_each_problem_solved_once(
        self, inst: Instance, k: int
    ):
        outcome, probes, inner, counters = self._spied_search(inst, k)
        plain = bisect_target_makespan(
            inst, k, make_solver(), job_cap=k - 1, ctx=SolveContext()
        )
        assert (
            outcome.final_target,
            outcome.rounded,
            outcome.dp_result,
            outcome.iterations,
        ) == (plain.final_target, plain.rounded, plain.dp_result, plain.iterations)

        def floored(problem: DPProblem, m: int, quantum: int) -> tuple:
            target = problem.target - problem.target % quantum if quantum else 0
            return (problem.class_sizes, problem.counts, target, problem.job_cap, m)

        # The inner solver sees each distinct floored problem exactly once,
        # in the order the search first poses it.
        keys = []
        for problem, m in probes:
            key = floored(problem, m, math.gcd(*problem.class_sizes))
            if key not in keys:
                keys.append(key)
        inner_keys = [floored(p, m, math.gcd(*p.class_sizes)) for p, m in inner]
        assert inner_keys == keys
        assert counters.get("dp_reuses", 0) == len(probes) - len(inner)
        # Probes in the same rounding bucket (target floored to the
        # quantum ceil(T/k^2)) never reach the inner solver twice.
        units = {
            floored(p, m, rounding_unit(p.target, k)) for p, m in probes
        }
        assert len(inner) <= len(units)

    def test_repeats_near_convergence_are_reused(self):
        # Once the interval is narrower than the quantum, every further
        # probe floors to a problem solved before.
        inst = Instance([60, 57, 51, 44, 38, 33, 31, 26, 20, 13, 9, 5], 4)
        outcome, probes, inner, counters = self._spied_search(inst, 4)
        assert counters["dp_reuses"] >= 1
        assert len(inner) < len(probes) == outcome.num_iterations

    def test_key_covers_every_input_of_the_dp(self):
        calls: list[tuple[DPProblem, int]] = []

        def solver(problem: DPProblem, m: int) -> DPResult:
            calls.append((problem, m))
            return solve(problem, "table", limit=m)

        reusing = reuse_probes(solver)
        base = DPProblem((10, 20), (2, 1), 37)
        posed = [
            (base, 3),
            (DPProblem((10, 20), (2, 1), 39), 3),  # same floor 30: reused
            (base, 2),  # machine budget
            (DPProblem((10, 20), (3, 1), 37), 3),  # counts
            (DPProblem((10, 20), (2, 1), 37, job_cap=1), 3),  # job cap
            (DPProblem((10, 30), (2, 1), 37), 3),  # sizes
            (DPProblem((10, 20), (2, 1), 40), 3),  # floor 40
        ]
        for problem, m in posed:
            assert reusing(problem, m) == solve(problem, "table", limit=m)
        assert calls == [posed[0]] + posed[2:]


@given(small_instances())
@settings(max_examples=40)
def test_property_final_target_bounds_optimum(inst: Instance):
    """The certified rounded target never exceeds UB and is never below
    LB; and the true optimum is at least LB (so the (1+eps) argument can
    anchor on T*)."""
    outcome = bisect_target_makespan(inst, 3, make_solver())
    bounds = makespan_bounds(inst)
    assert bounds.lower <= outcome.final_target <= bounds.upper
    opt = brute_force(inst).makespan
    # The rounded decision relaxes the true one, so the minimal feasible
    # rounded target cannot exceed the true optimum.
    assert outcome.final_target <= opt


class TestCheckDeadline:
    """The ``check_deadline`` hook (service satellite): invoked between
    probes so a caller can abort a long search without killing the
    worker thread."""

    def test_called_at_least_once_per_probe(self, small_instance):
        ticks: list[int] = []
        calls: list[int] = []
        outcome = bisect_target_makespan(
            small_instance,
            3,
            make_solver(calls=calls),
            ctx=SolveContext(warm_start=False, check_deadline=lambda: ticks.append(1)),
        )
        assert len(ticks) >= len(calls) >= outcome.num_iterations

    def test_raising_aborts_search(self, small_instance):
        class Boom(Exception):
            pass

        def check() -> None:
            raise Boom

        calls: list[int] = []
        with pytest.raises(Boom):
            bisect_target_makespan(
                small_instance,
                3,
                make_solver(calls=calls),
                ctx=SolveContext(warm_start=False, check_deadline=check),
            )
        # The hook fires before the first probe, so no DP ran.
        assert calls == []

    def test_none_is_default_and_harmless(self, small_instance):
        plain = bisect_target_makespan(small_instance, 3, make_solver())
        hooked = bisect_target_makespan(
            small_instance,
            3,
            make_solver(),
            ctx=SolveContext(warm_start=False, check_deadline=lambda: None),
        )
        assert hooked.final_target == plain.final_target
        assert hooked.num_iterations == plain.num_iterations
