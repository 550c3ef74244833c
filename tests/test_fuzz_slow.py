"""Heavier randomized cross-validation (marked slow).

These go beyond the per-module property tests: larger instances, more
engines compared at once, full-pipeline equivalences.  They run in the
default suite (a few seconds total) but are marked so ultra-fast CI
loops can deselect them with ``-m 'not slow'``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.local_search import lpt_with_local_search
from repro.algorithms.lpt import lpt
from repro.algorithms.multifit import multifit
from repro.core.bounds import makespan_bounds
from repro.core.context import SolveContext
from repro.core.dp import DPProblem, SEQUENTIAL_ENGINES, solve
from repro.core.parallel_dp import parallel_dp
from repro.core.ptas import parallel_ptas, ptas
from repro.core.reference import algorithm1
from repro.exact.branch_and_bound import branch_and_bound
from repro.exact.ilp import ilp_solve
from repro.exact.sahni import exact_dp
from repro.core.rounding import round_instance
from repro.model.instance import Instance
from repro.model.verify import verify_ptas_result, verify_schedule

pytestmark = pytest.mark.slow


def medium_instance_strategy():
    return st.builds(
        Instance,
        st.lists(st.integers(min_value=1, max_value=120), min_size=5, max_size=35),
        st.integers(min_value=2, max_value=6),
    )


@given(medium_instance_strategy())
@settings(max_examples=25)
def test_fuzz_full_stack_consistency(inst: Instance):
    """One instance through the whole library: exact solvers agree,
    heuristics respect their guarantees against the exact optimum, the
    PTAS verifies, and the parallel PTAS matches the sequential one."""
    bnb = branch_and_bound(inst, node_budget=500_000)
    if not bnb.optimal:
        return  # adversarial draw; exactness checked elsewhere
    opt = bnb.makespan
    assert makespan_bounds(inst).lower <= opt <= makespan_bounds(inst).upper

    assert lpt(inst).makespan <= (4 / 3) * opt + 1e-9
    assert multifit(inst).makespan <= 1.23 * opt + 1.0
    assert opt <= lpt_with_local_search(inst).makespan <= lpt(inst).makespan

    seq = ptas(inst, 0.3, engine="table")
    assert seq.makespan <= 1.3 * opt + 1e-9
    assert verify_ptas_result(seq).ok

    par = parallel_ptas(inst, 0.3, num_workers=4, backend="thread")
    assert par.schedule.assignment == seq.schedule.assignment

    # The literal transcription implements the *printed* algorithm
    # (no job-cap guarantee fix, faithful bisection), so compare against
    # the uncapped run with warm-start disabled: rounded-DP feasibility
    # is non-monotone below OPT, so the warm search may certify a
    # different (equally valid) target than the literal one.
    ref = algorithm1(inst, 0.3)
    unfixed = ptas(
        inst,
        0.3,
        engine="table",
        guarantee_fix=False,
        ctx=SolveContext(warm_start=False),
    )
    assert ref.makespan == unfixed.makespan


@given(medium_instance_strategy())
@settings(max_examples=15)
def test_fuzz_rounded_dp_engines_on_real_instances(inst: Instance):
    """All sequential engines + the wavefront agree on rounded problems
    arising from real instances (bigger than the synthetic strategy's)."""
    target = makespan_bounds(inst).midpoint()
    r = round_instance(inst, target, 4)
    problem = DPProblem(r.class_sizes, r.class_counts, target)
    if problem.table_size > 20_000:
        return
    reference = solve(problem, "table", track_schedule=False)
    for engine in SEQUENTIAL_ENGINES:
        assert solve(problem, engine, track_schedule=False).opt == reference.opt
    assert parallel_dp(problem, 4, "numpy-serial", track_schedule=False).opt == reference.opt
    assert parallel_dp(problem, 3, "thread", track_schedule=False).opt == reference.opt


@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=4, max_size=14),
    st.integers(min_value=2, max_value=3),
)
@settings(max_examples=15)
def test_fuzz_ilp_vs_sahni_vs_bnb(times, m):
    inst = Instance(times, m)
    a = ilp_solve(inst).makespan
    b = branch_and_bound(inst).makespan
    c = exact_dp(inst).makespan
    assert a == b == c


@given(medium_instance_strategy(), st.sampled_from([0.25, 0.4, 0.6]))
@settings(max_examples=15)
def test_fuzz_ptas_schedule_always_verifies(inst: Instance, eps: float):
    result = ptas(inst, eps)
    assert verify_schedule(result.schedule).ok
    assert verify_ptas_result(result).ok
