"""Benchmark: Table I — the worked DP example of §III.

Micro-benchmarks the sequential table sweep and the wavefront parallel DP
on the exact example the paper walks through (sizes 6 and 11, N=(2,3),
T=30), and regenerates the rendered table.
"""

from __future__ import annotations

from conftest import save_panel

from repro.core.dp import solve_table
from repro.core.parallel_dp import parallel_dp
from repro.experiments.tables import TABLE1_PROBLEM, run_table1


def test_table1_sequential_dp(benchmark):
    result = benchmark(solve_table, TABLE1_PROBLEM)
    assert result.opt == 2


def test_table1_parallel_dp_thread_backend(benchmark):
    result = benchmark(parallel_dp, TABLE1_PROBLEM, 4, "thread")
    assert result.opt == 2


def test_table1_parallel_dp_simulated_backend(benchmark):
    result = benchmark(parallel_dp, TABLE1_PROBLEM, 4, "simulated")
    assert result.opt == 2


def test_table1_regenerate(benchmark, results_dir):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    assert result.grid == (
        (0, 1, 1, 2),
        (1, 1, 1, 2),
        (1, 1, 2, 2),
    )
    save_panel(results_dir, "table1", result.render())
