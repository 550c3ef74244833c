"""Tests for the shared vectorized wavefront kernel (:mod:`repro.core.kernels`).

The contract under test: every backend — numpy-serial, thread,
simulated — fills a *bit-identical* ``int64`` table (one sentinel
convention, one recurrence implementation), and the results agree with
:func:`repro.core.dp.solve_table` including ``limit``-triggered
infeasible probes and degenerate instances.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.bisection import bisect_target_makespan
from repro.core.dp import DPProblem, solve, solve_table
from repro.core.kernels import (
    KERNEL_INFEASIBLE,
    LevelKernel,
    build_level_arrays,
    row_major_strides,
    table_opt,
    table_to_optional,
)
from repro.core.parallel_dp import compute_table, parallel_dp
from repro.core.rounding import accuracy_parameter
from repro.workloads.generator import make_instance

from conftest import dp_problems

FAST_BACKENDS = ("numpy-serial", "thread")


def reference_optional_table(problem: DPProblem) -> list[int | None]:
    """Independent row-major sweep oracle (the seed's pure-Python loop)."""
    dims = problem.dims
    strides = problem.strides()
    sigma = problem.table_size
    configs = problem.configurations().configs
    offsets = [sum(s * st for s, st in zip(cfg, strides)) for cfg in configs]
    table: list[int | None] = [None] * sigma
    table[0] = 0
    v = [0] * len(dims)
    for flat in range(1, sigma):
        for c in range(len(dims) - 1, -1, -1):
            if v[c] + 1 < dims[c]:
                v[c] += 1
                break
            v[c] = 0
        best: int | None = None
        for cfg, offset in zip(configs, offsets):
            if all(cfg[c] <= v[c] for c in range(len(cfg))):
                prev = table[flat - offset]
                if prev is not None and (best is None or prev < best):
                    best = prev
        table[flat] = None if best is None else best + 1
    return table


def reference_update(
    table: np.ndarray,
    flats: np.ndarray,
    dims: tuple[int, ...],
    configs: list[tuple[int, ...]],
    level: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One numpy pass per configuration — the update before the fused
    kernel.  Returns the updated copy of *table* and the per-state
    ``|C_v|``."""
    strides = np.asarray(row_major_strides(dims), dtype=np.int64)
    vmat = (flats[:, None] // strides) % np.asarray(dims, dtype=np.int64)
    best = np.full(len(flats), KERNEL_INFEASIBLE, dtype=np.int64)
    counts = np.zeros(len(flats), dtype=np.int64)
    for cfg in configs:
        if level is not None and sum(cfg) > level:
            continue
        mask = (vmat >= np.asarray(cfg, dtype=np.int64)).all(axis=1)
        counts += mask
        offset = int(np.dot(cfg, strides))
        preds = table[np.where(mask, flats - offset, 0)]
        np.minimum(best, np.where(mask, preds + 1, KERNEL_INFEASIBLE), out=best)
    np.minimum(best, KERNEL_INFEASIBLE, out=best)
    best[flats == 0] = 0
    out = table.copy()
    out[flats] = best
    return out, counts


@st.composite
def update_cases(draw: st.DrawFn):
    """A table geometry, any configuration set (possibly empty), a table
    of arbitrary entries, and one chunk: a subset of one level, or (for
    ``level=None``) of the whole table."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    vectors = [
        tuple(int(x) for x in np.unravel_index(flat, dims))
        for flat in range(1, int(np.prod(dims)))
    ]
    configs = sorted(draw(st.sets(st.sampled_from(vectors))) if vectors else [])
    sigma = int(np.prod(dims))
    entries = draw(
        st.lists(
            st.one_of(st.integers(0, 40), st.just(KERNEL_INFEASIBLE)),
            min_size=sigma,
            max_size=sigma,
        )
    )
    table = np.asarray(entries, dtype=np.int64)
    levels = build_level_arrays(dims)
    level = draw(st.one_of(st.none(), st.integers(0, len(levels) - 1)))
    pool = np.arange(sigma) if level is None else levels[level]
    chunk = draw(st.lists(st.sampled_from(pool.tolist()), unique=True))
    return dims, configs, table, np.asarray(chunk, dtype=np.int64), level


class TestFusedUpdate:
    """The fused ``(q x |C_l|)`` update against the per-configuration loop."""

    @given(update_cases(), st.sampled_from([1, 3, 17, kernels.LANE_BUDGET]))
    @settings(max_examples=200)
    def test_matches_per_configuration_reference(self, case, budget):
        dims, configs, table, flats, level = case
        kernel = LevelKernel(dims, row_major_strides(dims), configs)
        expected, expected_counts = reference_update(
            table, flats, dims, configs, level
        )
        original = kernels.LANE_BUDGET
        kernels.LANE_BUDGET = budget  # small budgets cut every chunk
        try:
            got = table.copy()
            counts = kernel.update(got, flats, level=level, count_applicable=True)
            plain = table.copy()
            assert kernel.update(plain, flats, level=level) is None
        finally:
            kernels.LANE_BUDGET = original
        assert np.array_equal(got, expected)
        assert np.array_equal(plain, expected)
        assert np.array_equal(counts, expected_counts)

    def test_chunk_wider_than_lane_budget(self):
        dims = (9, 8, 7, 6, 5)
        problem = DPProblem((7, 9, 11, 13, 17), tuple(x - 1 for x in dims), 40)
        kernel = LevelKernel.for_problem(problem)
        levels = build_level_arrays(dims)
        level = max(range(len(levels)), key=lambda lvl: len(levels[lvl]))
        flats = levels[level]
        assert len(flats) * kernel.applicable_configs(level) > kernels.LANE_BUDGET
        rng = np.random.default_rng(7)
        table = rng.integers(0, 30, problem.table_size).astype(np.int64)
        expected, expected_counts = reference_update(
            table, flats, dims, list(problem.configurations().configs), level
        )
        counts = kernel.update(table, flats, level=level, count_applicable=True)
        assert np.array_equal(table, expected)
        assert np.array_equal(counts, expected_counts)

    def test_empty_configuration_set(self):
        kernel = LevelKernel((3, 4), (4, 1), [])
        table = kernel.allocate_table(12)
        counts = kernel.update(table, np.arange(12), count_applicable=True)
        assert table[0] == 0 and (table[1:] == KERNEL_INFEASIBLE).all()
        assert counts.tolist() == [0] * 12

    def test_chunk_with_flat_zero(self, paper_example_problem):
        p = paper_example_problem
        kernel = LevelKernel.for_problem(p)
        table = np.full(p.table_size, 5, dtype=np.int64)
        kernel.update(table, np.array([4, 0, 7]))
        assert table[0] == 0
        kernel.update(table, np.array([0]), level=0)
        assert table[0] == 0


class TestKernelPrimitives:
    def test_strides_match_problem(self, paper_example_problem):
        p = paper_example_problem
        assert row_major_strides(p.dims) == p.strides()

    def test_level_arrays_partition_the_table(self, paper_example_problem):
        p = paper_example_problem
        levels = build_level_arrays(p.dims)
        assert all(lv.dtype == np.int64 for lv in levels)
        seen = np.sort(np.concatenate(levels))
        assert np.array_equal(seen, np.arange(p.table_size))
        assert tuple(len(lv) for lv in levels) == (1, 2, 3, 3, 2, 1)

    def test_empty_dims_single_state(self):
        levels = build_level_arrays(())
        assert len(levels) == 1
        assert levels[0].tolist() == [0]

    def test_allocate_table_sentinel(self, paper_example_problem):
        kernel = LevelKernel.for_problem(paper_example_problem)
        table = kernel.allocate_table(5)
        assert table[0] == 0
        assert (table[1:] == KERNEL_INFEASIBLE).all()
        assert table_opt(table, 0) == 0
        assert table_opt(table, 1) is None

    def test_sweep_matches_reference_on_paper_example(
        self, paper_example_problem
    ):
        p = paper_example_problem
        kernel = LevelKernel.for_problem(p)
        table = kernel.allocate_table(p.table_size)
        kernel.sweep(table, build_level_arrays(p.dims))
        assert table_to_optional(table) == reference_optional_table(p)

    def test_update_counts_applicable_configs(self, paper_example_problem):
        p = paper_example_problem
        kernel = LevelKernel.for_problem(p)
        table = kernel.allocate_table(p.table_size)
        levels = build_level_arrays(p.dims)
        counted = {}
        for flats in levels[1:]:
            counts = kernel.update(table, flats, count_applicable=True)
            counted.update(zip(flats.tolist(), counts.tolist()))
        # |C_v| at the full vector N equals the whole configuration set
        # bounded by N — every configuration is applicable there.
        assert counted[p.table_size - 1] == len(p.configurations())
        # A level-1 state admits exactly its singleton configuration.
        one_hot_flat = int(levels[1][0])
        assert counted[one_hot_flat] == 1

    def test_kernel_is_picklable(self, paper_example_problem):
        import pickle

        kernel = LevelKernel.for_problem(paper_example_problem)
        clone = pickle.loads(pickle.dumps(kernel))
        p = paper_example_problem
        table = clone.allocate_table(p.table_size)
        clone.sweep(table, build_level_arrays(p.dims))
        assert table_to_optional(table) == reference_optional_table(p)


class TestBackendsBitIdentical:
    @given(dp_problems())
    @settings(max_examples=30)
    def test_property_tables_bit_identical(self, problem: DPProblem):
        if not problem.counts:
            return
        expected = reference_optional_table(problem)
        tables = {
            backend: compute_table(problem, workers, backend)
            for backend, workers in (
                ("numpy-serial", 1),
                ("thread", 4),
                ("simulated", 3),
            )
        }
        for backend, table in tables.items():
            assert table.dtype == np.int64, backend
            assert table_to_optional(table) == expected, backend
            assert np.array_equal(table, tables["numpy-serial"]), backend

    @given(dp_problems())
    @settings(max_examples=20)
    def test_property_results_match_solve_table_with_limits(
        self, problem: DPProblem
    ):
        seq = solve_table(problem)
        assert seq.opt is not None
        # None, a passing limit, and a limit that triggers infeasibility.
        for limit in (None, seq.opt, seq.opt - 1):
            ref = solve_table(problem, limit=limit)
            for backend in FAST_BACKENDS:
                par = parallel_dp(problem, 3, backend, limit=limit)
                assert par.opt == ref.opt, (backend, limit)
                assert par.machine_configs == ref.machine_configs, (
                    backend,
                    limit,
                )

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_empty_counts_instance(self, backend):
        res = parallel_dp(DPProblem((), (), 7), 3, backend)
        assert res.opt == 0
        assert res.machine_configs == ()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_all_zero_counts_instance(self, backend):
        res = parallel_dp(DPProblem((5, 9), (0, 0), 11), 3, backend)
        assert res.opt == 0
        assert res.machine_configs == ()

    def test_numpy_serial_registered_backend(self, paper_example_problem):
        res = parallel_dp(paper_example_problem, 1, "numpy-serial")
        assert res.engine == "parallel-numpy-serial"
        assert res.opt == 2


@lru_cache(maxsize=None)
def ptas_paper_problems() -> tuple[DPProblem, ...]:
    """The largest DP problem (sigma <= 9000) that the PTAS bisection at
    eps 0.2 meets on each instance family of the paper's panel
    (m = 8, n = 40, seeds 0-5)."""
    k = accuracy_parameter(0.2)
    largest = {}
    for family in ("u_2m", "u_10", "u_100", "u_10n"):
        for seed in range(6):
            met = []

            def solver(problem, m):
                met.append(problem)
                return solve(problem, "numpy", limit=m)

            instance = make_instance(family, 8, 40, seed=seed)
            bisect_target_makespan(instance, k, solver, job_cap=k - 1)
            for problem in met:
                best = largest.get(family)
                if problem.table_size <= 9000 and (
                    best is None or problem.table_size > best.table_size
                ):
                    largest[family] = problem
    return tuple(largest.values())


class TestPaperPanelTables:
    """Bit-identical tables on the problems the benchmark panel solves."""

    def test_panel_reaches_large_tables(self):
        assert max(p.table_size for p in ptas_paper_problems()) > 4000

    @pytest.mark.parametrize("index", range(4))
    def test_numpy_engine_matches_table_engine(self, index):
        problem = ptas_paper_problems()[index]
        kernel = LevelKernel.for_problem(problem)
        table = kernel.allocate_table(problem.table_size)
        kernel.sweep(table, build_level_arrays(problem.dims))
        assert table_to_optional(table) == reference_optional_table(problem)
        fast, faithful = solve(problem, "numpy"), solve(problem, "table")
        assert (fast.opt, fast.machine_configs) == (
            faithful.opt,
            faithful.machine_configs,
        )

    @pytest.mark.parametrize("index", range(4))
    def test_thread_matches_numpy_serial(self, index):
        problem = ptas_paper_problems()[index]
        expected = compute_table(problem, 1, "numpy-serial")
        assert np.array_equal(compute_table(problem, 3, "thread"), expected)
