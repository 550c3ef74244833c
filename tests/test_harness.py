"""Tests for the experiment harness (:mod:`repro.experiments.harness`)."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    ExperimentConfig,
    InstanceRecord,
    run_instance,
)
from repro.model.instance import Instance


@pytest.fixture(scope="module")
def record() -> InstanceRecord:
    inst = Instance([9, 8, 7, 6, 5, 5, 4, 3, 2, 1], num_machines=3)
    cfg = ExperimentConfig(cores=(2, 4), ip_time_limit=10.0)
    return run_instance(inst, cfg)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.eps == 0.3
        assert cfg.cores == (2, 4, 8, 16)

    def test_rejects_empty_cores(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cores=())

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(cores=(0,))


class TestRunInstance:
    def test_all_algorithms_measured(self, record: InstanceRecord):
        assert record.sequential.seconds >= 0
        assert record.ip.seconds >= 0
        assert record.lpt_run.seconds >= 0
        assert record.ls_run.seconds >= 0
        assert len(record.parallel) == 2

    def test_parallel_at(self, record: InstanceRecord):
        assert record.parallel_at(2).cores == 2
        assert record.parallel_at(4).cores == 4
        with pytest.raises(KeyError):
            record.parallel_at(64)

    def test_parallel_makespan_matches_sequential(self, record: InstanceRecord):
        for run in record.parallel:
            assert run.makespan == record.sequential.makespan

    def test_ip_is_optimal_on_tiny_instance(self, record: InstanceRecord):
        assert record.ip.optimal
        assert record.ip.makespan == 17  # brute-force verified elsewhere

    def test_ratios_ordered(self, record: InstanceRecord):
        """PTAS within guarantee; LS at least as bad as optimal."""
        assert record.ratio(record.sequential.makespan) <= 1.3 + 1e-9
        assert record.ratio(record.ls_run.makespan) >= 1.0 - 1e-9

    def test_speedup_vs_ip_consistent(self, record: InstanceRecord):
        s = record.speedup_vs_ip(2)
        par = record.parallel_at(2)
        assert s == pytest.approx(record.ip.seconds / par.seconds)

    def test_simulated_flag(self, record: InstanceRecord):
        assert all(run.simulated for run in record.parallel)


class TestRealBackend:
    def test_serial_backend_measures_wall_time(self):
        inst = Instance([5, 4, 3, 2, 1], num_machines=2)
        cfg = ExperimentConfig(
            cores=(2,), parallel_backend="numpy-serial", ip_time_limit=5.0
        )
        rec = run_instance(inst, cfg)
        run = rec.parallel_at(2)
        assert not run.simulated
        assert run.seconds > 0
