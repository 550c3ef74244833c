"""The benchmark's metric math, pinned on hand-made inputs."""

import doctest
import json
import statistics
from pathlib import Path

import pytest

from repro.model.instance import Instance
from repro.obs.trace import Span
from repro.service.requests import STATUS_ERROR, STATUS_REJECTED, SolveResult

from perfbench import metrics
from perfbench.checks import Verifier
from perfbench.metrics import OpTally, percentile, pool_ipc_ms, self_times, union_length
from perfbench.workloads import WORKLOADS, fingerprint

ROOT = Path(__file__).resolve().parents[2]


def test_doctests():
    assert doctest.testmod(metrics).failed == 0


@pytest.mark.parametrize("n", [2, 5, 10, 37, 1200])
def test_percentile_matches_inclusive_quantiles(n):
    values = [((i * 7919) % 1000) / 7.0 for i in range(n)]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    assert percentile(values, 50) == pytest.approx(statistics.median(values))
    assert percentile(values, 90) == pytest.approx(cuts[89])


def test_percentile_is_order_free_and_bounded():
    assert percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_percentile_moves_smoothly_between_instances():
    # One op getting faster moves p50 by a fraction of the gap, not the
    # whole step to the neighbouring instance.
    before = [10.0, 20.0, 100.0, 200.0]
    after = [10.0, 20.0, 90.0, 200.0]
    assert percentile(before, 50) == 60.0
    assert percentile(after, 50) == 55.0


def _span(kind, start, end, *children):
    span = Span(kind, {}, start)
    span.end = end
    span.children.extend(children)
    return span


def test_self_time_subtracts_union_of_overlapping_children():
    # Two concurrent probes [1, 4] and [3, 6] cover 5 s of the 10 s round,
    # not 6 s; a child poking past its parent is clipped to it.
    root = _span(
        "spec_round",
        0.0,
        10.0,
        _span("probe", 1.0, 4.0, _span("dp", 1.5, 3.5)),
        _span("probe", 3.0, 6.0),
        _span("reconstruct", 9.0, 11.0),
    )
    selfs = self_times(root)
    assert selfs["spec_round"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["probe"] == pytest.approx((3.0 - 2.0) + 3.0)
    assert selfs["dp"] == pytest.approx(2.0)
    assert selfs["reconstruct"] == pytest.approx(2.0)


def test_self_times_of_disjoint_tree_add_up_to_root():
    root = _span(
        "solve",
        0.0,
        8.0,
        _span("probe", 0.5, 3.0, _span("round", 0.5, 0.7), _span("dp", 0.7, 2.9)),
        _span("probe", 3.0, 7.0, _span("dp", 3.1, 6.0, _span("enumerate", 3.1, 3.3))),
        _span("reconstruct", 7.0, 7.5),
    )
    assert sum(self_times(root).values()) == pytest.approx(8.0)


def test_open_spans_count_zero():
    root = _span("solve", 0.0, 2.0, Span("probe", {}, 1.0))
    assert self_times(root) == {"solve": 2.0}


def test_union_length_clips_and_merges():
    assert union_length([], 0.0, 1.0) == 0.0
    assert union_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 5.0) == 2.0
    assert union_length([(-5.0, 15.0)], 0.0, 10.0) == 10.0


INSTANCE = Instance([5, 4, 3, 3, 3], 2)  # Eq. 1 bound 9, optimum 9


def _ok(makespan=9, assignment=((0, 1), (2, 3, 4)), **kw):
    return SolveResult(status="ok", engine="ptas", makespan=makespan, assignment=assignment, guarantee=1.2, **kw)


@pytest.mark.parametrize(
    "result, outcome",
    [
        (_ok(), "ok"),
        (None, "no_answer"),
        (SolveResult(status=STATUS_REJECTED, retry_after=0.1), "rejected"),
        (SolveResult(status=STATUS_ERROR, error="boom"), "error"),
        (_ok(degraded=True), "degraded"),
        (_ok(makespan=8), "unverified"),  # reported makespan is not the real one
        (_ok(assignment=((0, 1), (2, 3))), "unverified"),  # job 4 missing
        (_ok(makespan=12, assignment=((0, 1, 2), (3, 4))), "unverified"),  # 12 > 1.2 x 9
    ],
)
def test_verifier_outcomes(result, outcome):
    assert Verifier().outcome(INSTANCE, result, "ptas", 0.2) == outcome


def test_guarantee_above_textbook_bound_is_unverified():
    result = SolveResult(status="ok", makespan=9, assignment=((0, 1), (2, 3, 4)), guarantee=1.5)
    assert Verifier().outcome(INSTANCE, result, "ptas", 0.2) == "unverified"


def test_exact_cross_check_confirms_guarantee_above_lower_bound():
    # n = 2m + 1 jobs of 3 on 2 machines: Eq. 1 gives 8, the optimum is 9.
    inst = Instance([3, 3, 3, 3, 3], 2)
    result = SolveResult(status="ok", makespan=9, assignment=((0, 1, 2), (3, 4)), guarantee=1.1)
    verifier = Verifier()
    assert inst.trivial_lower_bound() * 1.1 < 9
    assert verifier.outcome(inst, result, "ptas", 0.1) == "ok"
    assert verifier.cp_checks == 1
    verifier.outcome(Instance([3, 3, 3, 3, 3], 2), result, "ptas", 0.1)
    assert verifier.cp_checks == 1  # cached by sorted times


def test_rejected_and_degraded_ops_count_in_error_rate():
    verifier, tally = Verifier(), OpTally()
    for result in (_ok(), _ok(), SolveResult(status=STATUS_REJECTED), _ok(degraded=True), None):
        tally.add(verifier.outcome(INSTANCE, result, "ptas", 0.2))
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.error_rate == pytest.approx(0.6)
    with pytest.raises(ValueError):
        tally.add("slow")


def test_pool_ipc_ms():
    # 200 requests, 1.0 s of supervisor latency, 0.6 s of it solving.
    assert pool_ipc_ms(1.0, 0.6, 200) == pytest.approx(2.0)
    assert pool_ipc_ms(1.0, 0.6, 0) == 0.0


def test_benchmark_json_stamps_current_fingerprints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(whys) <= set(WORKLOADS)
    for name, why in whys.items():
        assert f"fingerprint={fingerprint(WORKLOADS[name])}" in why, name


def test_solve_panel_permutes_jobs_by_seed_only():
    workload = WORKLOADS["ptas_paper"]
    a, b = workload.instances(1), workload.instances(2)
    for _ in range(8):
        x, y = next(a), next(b)
        assert sorted(x.processing_times) == sorted(y.processing_times)
    again = next(WORKLOADS["ptas_paper"].instances(1))
    assert again.processing_times == next(workload.instances(1)).processing_times


def test_service_stream_repeats_every_fourth_request_permuted():
    stream = WORKLOADS["service_single"].requests(7)
    requests = [next(stream) for _ in range(40)]
    seen = set()
    for i, req in enumerate(requests):
        key = (tuple(sorted(req.times)), req.machines, req.problem, req.engine, req.eps)
        if i % 4 == 3:
            assert key in seen
        seen.add(key)
    assert {r.problem for r in requests} == {"p_cmax", "q_cmax"}


def test_traced_runs_of_gated_workloads_sample_every_kind_of_layer():
    # A traced run must report every per-layer metric: between the
    # workload itself and its samples there is a wavefront solve
    # workload, a single-process server and a pooled one.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        workload = WORKLOADS[entry["name"]]
        kinds = (workload, *workload.traced_also)
        assert any(getattr(w, "serial_backend", None) for w in kinds), workload.name
        assert any(getattr(w, "pooled", None) is False for w in kinds), workload.name
        assert any(getattr(w, "pooled", None) for w in kinds), workload.name
