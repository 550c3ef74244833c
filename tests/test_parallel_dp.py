"""Tests for the wavefront Parallel DP (:mod:`repro.core.parallel_dp`).

Key invariants: the level index partitions the table by anti-diagonal;
every backend fills the table identically to the sequential sweep; only
the simulated backend takes a schedule; its accounting is internally
consistent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.dp import DPProblem, solve_table
from repro.core.parallel_dp import (
    BACKENDS,
    build_level_index,
    parallel_dp,
)
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import SimulatedMachine

from conftest import dp_problems


class TestLevelIndex:
    def test_paper_example_levels(self, paper_example_problem):
        idx = build_level_index(paper_example_problem)
        assert idx.num_levels == 6  # n' + 1 = 5 + 1
        assert idx.sizes == (1, 2, 3, 3, 2, 1)

    def test_levels_partition_all_states(self, paper_example_problem):
        idx = build_level_index(paper_example_problem)
        seen = sorted(i for level in idx.levels for i in level)
        assert seen == list(range(paper_example_problem.table_size))

    def test_level_members_have_matching_sum(self, paper_example_problem):
        from repro.core.dp import unrank

        p = paper_example_problem
        strides = p.strides()
        idx = build_level_index(p)
        for l, level in enumerate(idx.levels):
            for flat in level:
                assert sum(unrank(flat, p.dims, strides)) == l

    def test_one_dimensional_table(self):
        p = DPProblem((5,), (4,), 10)
        idx = build_level_index(p)
        assert idx.sizes == (1, 1, 1, 1, 1)

    @given(dp_problems())
    @settings(max_examples=30)
    def test_property_level_count(self, problem: DPProblem):
        if not problem.counts:
            return
        idx = build_level_index(problem)
        assert idx.num_levels == problem.num_long_jobs + 1
        assert sum(idx.sizes) == problem.table_size


class TestBackendsAgree:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_paper_example(self, paper_example_problem, backend, workers):
        seq = solve_table(paper_example_problem)
        par = parallel_dp(paper_example_problem, workers, backend)
        assert par.opt == seq.opt
        # Backtracking is deterministic over the identical table, so the
        # witnesses match exactly — the paper's "same schedule" property.
        assert par.machine_configs == seq.machine_configs
        assert par.engine == f"parallel-{backend}"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_problem(self, backend):
        res = parallel_dp(DPProblem((), (), 5), 4, backend)
        assert res.opt == 0

    def test_unknown_backend(self, paper_example_problem):
        with pytest.raises(ValueError, match="unknown backend"):
            parallel_dp(paper_example_problem, 2, "gpu")

    def test_invalid_workers(self, paper_example_problem):
        with pytest.raises(ValueError, match="num_workers"):
            parallel_dp(paper_example_problem, 0, "numpy-serial")

    def test_limit_semantics(self):
        p = DPProblem((7,), (4,), 10)  # OPT = 4
        assert parallel_dp(p, 2, "numpy-serial", limit=3).opt is None
        assert parallel_dp(p, 2, "numpy-serial", limit=4).opt == 4

    @given(dp_problems())
    @settings(max_examples=40)
    def test_property_serial_backend_matches_table(self, problem: DPProblem):
        seq = solve_table(problem)
        par = parallel_dp(problem, 3, "numpy-serial")
        assert par.opt == seq.opt
        assert par.machine_configs == seq.machine_configs

    @given(dp_problems())
    @settings(max_examples=15)
    def test_property_thread_backend_matches_table(self, problem: DPProblem):
        seq = solve_table(problem)
        par = parallel_dp(problem, 4, "thread")
        assert par.opt == seq.opt
        assert par.machine_configs == seq.machine_configs


class TestSimulatedBackend:
    def test_machine_receives_accounting(self, paper_example_problem):
        machine = SimulatedMachine(4, CostModel())
        res = parallel_dp(
            paper_example_problem, 4, "simulated", machine=machine
        )
        assert res.opt == 2
        assert machine.serial_ops > 0
        assert machine.parallel_ops > 0
        # 6 DP levels + the D-array parallel-for.
        assert len(machine.traces) == 7

    def test_single_worker_has_no_overheads(self, paper_example_problem):
        machine = SimulatedMachine(1, CostModel())
        parallel_dp(paper_example_problem, 1, "simulated", machine=machine)
        assert machine.parallel_ops == pytest.approx(machine.serial_ops)
        assert machine.speedup == pytest.approx(1.0)

    def test_speedup_increases_with_workers_on_wide_table(self):
        # A wide two-class table with plenty of per-level parallelism.
        p = DPProblem((5, 7), (10, 10), 24)
        speedups = []
        for workers in (1, 2, 4):
            machine = SimulatedMachine(workers, CostModel())
            parallel_dp(p, workers, "simulated", machine=machine)
            speedups.append(machine.speedup)
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_aggregation_across_calls(self, paper_example_problem):
        machine = SimulatedMachine(2, CostModel())
        parallel_dp(paper_example_problem, 2, "simulated", machine=machine)
        ops_one = machine.serial_ops
        parallel_dp(paper_example_problem, 2, "simulated", machine=machine)
        assert machine.serial_ops == pytest.approx(2 * ops_one)

    def test_results_identical_to_serial(self, paper_example_problem):
        seq = parallel_dp(paper_example_problem, 4, "numpy-serial")
        sim = parallel_dp(paper_example_problem, 4, "simulated")
        assert sim.opt == seq.opt
        assert sim.machine_configs == seq.machine_configs


class TestStats:
    def test_collect_stats(self, paper_example_problem):
        res = parallel_dp(
            paper_example_problem, 2, "numpy-serial", collect_stats=True
        )
        assert res.stats is not None
        assert res.stats.sigma == 12
        assert res.stats.level_sizes == (1, 2, 3, 3, 2, 1)
        assert res.stats.num_configs == 7


class TestTiledSchedule:
    """The batched (runs) schedule of the thread backend: bit-identical
    tables, one barrier per tile diagonal, per-worker utilization
    counters."""

    def wide_problem(self) -> DPProblem:
        return DPProblem((3, 5, 7), (3, 3, 2), 40)

    def explicit_plan(self, problem: DPProblem, blocks: int) -> "TilePlan":
        from repro.core.kernels import LevelKernel
        from repro.parallel.runs import KernelCostModel, plan_tiles

        index = build_level_index(problem)
        return plan_tiles(
            index.sizes,
            problem.table_size,
            blocks,
            num_configs=LevelKernel.for_problem(problem).num_configs,
            cost=KernelCostModel(alpha_seconds=1e-3, beta_seconds=1e-4),
        )

    @pytest.mark.parametrize("backend", ("thread", "simulated"))
    @pytest.mark.parametrize("blocks", (2, 3, 4))
    def test_multi_block_plan_bit_identical(self, backend, blocks):
        from repro.core.parallel_dp import compute_table

        problem = self.wide_problem()
        plan = self.explicit_plan(problem, blocks)
        assert plan.num_blocks == blocks  # the heavy cost model keeps B
        reference = compute_table(problem, 1, "numpy-serial")
        schedule = "runs" if backend == "simulated" else None
        table = compute_table(problem, blocks, backend, plan=plan, schedule=schedule)
        assert (table == reference).all()

    def test_runs_schedule_is_default_for_executor_backends(self):
        from repro.core.context import SolveContext
        from repro.core.parallel_dp import compute_table
        from repro.obs import Tracer

        problem = self.wide_problem()
        tracer = Tracer()
        compute_table(
            problem, 2, "thread", ctx=SolveContext(tracer=tracer),
            plan=self.explicit_plan(problem, 2),
        )
        assert tracer.find("run")
        assert not tracer.find("level")

    def test_one_run_span_per_diagonal(self):
        from repro.core.context import SolveContext
        from repro.core.parallel_dp import compute_table
        from repro.obs import Tracer

        problem = self.wide_problem()
        plan = self.explicit_plan(problem, 3)
        tracer = Tracer()
        compute_table(
            problem, 3, "thread", plan=plan, ctx=SolveContext(tracer=tracer)
        )
        assert len(tracer.find("run")) == plan.num_diagonals
        assert tracer.counters["runs"] == plan.num_diagonals

    def test_worker_utilization_counters(self):
        from repro.core.context import SolveContext
        from repro.core.parallel_dp import compute_table
        from repro.service.metrics import MetricsRegistry

        problem = self.wide_problem()
        plan = self.explicit_plan(problem, 2)
        registry = MetricsRegistry()
        compute_table(
            problem, 2, "thread", plan=plan, ctx=SolveContext(metrics=registry)
        )
        counters = registry.snapshot()["counters"]
        per_worker = [
            counters[f"wavefront.worker.{b}.states"]
            for b in range(plan.num_blocks)
        ]
        # Every non-origin state is attributed to exactly one worker.
        assert sum(per_worker) == problem.table_size - 1
        assert all(s > 0 for s in per_worker)
        assert counters["wavefront.diagonals"] == plan.num_diagonals

    def test_overdecomposed_plan_folds_onto_workers(self):
        from repro.core.context import SolveContext
        from repro.core.parallel_dp import compute_table
        from repro.service.metrics import MetricsRegistry

        problem = self.wide_problem()
        plan = self.explicit_plan(problem, 4)  # 4 blocks on 2 workers
        registry = MetricsRegistry()
        reference = compute_table(problem, 1, "numpy-serial")
        table = compute_table(
            problem, 2, "thread", plan=plan, ctx=SolveContext(metrics=registry)
        )
        assert (table == reference).all()
        counters = registry.snapshot()["counters"]
        assert "wavefront.worker.0.states" in counters
        assert "wavefront.worker.2.states" not in counters  # folded % 2
        total = sum(
            counters[f"wavefront.worker.{b}.states"] for b in range(2)
        )
        assert total == problem.table_size - 1

    def test_rejects_unknown_schedule(self):
        from repro.core.parallel_dp import compute_table

        with pytest.raises(ValueError, match="schedule"):
            compute_table(self.wide_problem(), 2, "simulated", schedule="zigzag")

    @pytest.mark.parametrize("backend", ("numpy-serial", "thread"))
    def test_schedule_is_honoured_by_simulated_only(self, backend):
        from repro.core.parallel_dp import compute_table

        for schedule in ("levels", "runs"):
            with pytest.raises(ValueError, match="simulated backend only"):
                compute_table(self.wide_problem(), 2, backend, schedule=schedule)
            with pytest.raises(ValueError, match="simulated backend only"):
                parallel_dp(DPProblem((), (), 5), 2, backend, schedule=schedule)

    def test_simulated_runs_speedup_monotone(self):
        from repro.core.parallel_dp import compute_table

        # Big enough that the planner never collapses to a serial tile
        # (tiny tables legitimately model no parallel win at any width).
        problem = DPProblem((2, 3, 5, 7), (4, 4, 3, 2), 60)
        previous = 0.0
        for workers in (1, 2, 4):
            machine = SimulatedMachine(workers)
            compute_table(
                problem, workers, "simulated", machine=machine,
                schedule="runs",
            )
            assert machine.speedup >= previous - 1e-9
            previous = machine.speedup
