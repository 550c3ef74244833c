"""Benchmark: parallel DP backends head-to-head on one real problem.

Measures the wall time of each backend at 2 workers.  On a host with
one or two CPUs the expectation is inverted from production:
numpy-serial is fastest and threads pay the per-diagonal barriers — the
point of the bench is to document those constants honestly next to the
simulated numbers (EXPERIMENTS.md, deviation 4).
"""

from __future__ import annotations

import pytest

from repro.core.bounds import makespan_bounds
from repro.core.dp import DPProblem
from repro.core.parallel_dp import BACKENDS, parallel_dp
from repro.core.rounding import round_instance
from repro.workloads.generator import make_instance


def _problem() -> DPProblem:
    inst = make_instance("u_10n", 10, 30, seed=1)
    target = makespan_bounds(inst).midpoint()
    r = round_instance(inst, target, 4)
    return DPProblem(r.class_sizes, r.class_counts, target)


PROBLEM = _problem()
REFERENCE = parallel_dp(PROBLEM, 1, "numpy-serial", track_schedule=False)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_wall_time(benchmark, backend):
    benchmark.group = "parallel-dp-backends"
    result = benchmark(
        parallel_dp, PROBLEM, 2, backend, track_schedule=False
    )
    assert result.opt == REFERENCE.opt

