"""Driver of the solve workloads: sequential :func:`repro.solve` calls.

Untraced run (``--trace 0``): set-up is timed as cold starts of a fresh
interpreter that imports :mod:`repro` and answers the warm-up instance;
then this process solves the panel back to back for the run's seconds,
and reports the whole blocks of panel slots it finished
(:attr:`~perfbench.workloads.SolveWorkload.block`).

Traced run (``--trace 1``): phase A solves the panel untraced for half
the seconds; phase B solves the same instances again, each under a fresh
:class:`repro.obs.Tracer`; for the wavefront workload, phase C solves
them once more on the serial backend.  The configuration cache is
cleared before each phase, so no phase starts warmer than phase A.
:func:`sample_layers` runs the same phases on a short sample of a
workload's panel, for a traced run that lacks those layers itself.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, NamedTuple

import repro
from repro.core.configurations import _enumerate_cached
from repro.core.context import SolveContext
from repro.model.instance import Instance
from repro.obs import Tracer

from perfbench import proc
from perfbench.checks import Verifier
from perfbench.metrics import OpTally, percentile, ratio, self_times
from perfbench.workloads import SolveWorkload

#: Cold starts per run; set-up is their median.
COLD_STARTS = 3
#: Panel slots :func:`sample_layers` solves.
SAMPLE_SLOTS = 8

_COLD_START = """
import json, sys
import repro
spec = json.loads(sys.argv[1])
result = repro.solve(repro.Instance(spec["times"], spec["machines"]), **spec["solve"])
print(result.makespan, flush=True)
"""


def cold_start_seconds(workload: SolveWorkload, root: Path) -> float:
    """Wall seconds from spawning a fresh interpreter to its answer on
    the warm-up instance (workload generation is done beforehand)."""
    inst = workload.warmup_instance()
    spec = json.dumps(
        {
            "times": list(inst.processing_times),
            "machines": inst.num_machines,
            "solve": workload.solve_kwargs,
        }
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _COLD_START, spec],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not line.strip():
        raise RuntimeError(f"cold start failed with exit code {child.returncode}")
    return elapsed


class Op(NamedTuple):
    """One timed solve."""

    instance: Instance
    result: Any
    wall_s: float
    tracer: Tracer | None


def _solve_timed(
    instances,
    kwargs: dict[str, Any],
    seconds: float | None = None,
    block: int = 1,
    traced: bool = False,
) -> tuple[list[Op], float, float]:
    """Solve *instances* in order, each timed alone; return the ops with
    the wall and CPU seconds they took together.

    With *seconds*, keep solving until that much wall time has passed and
    at least one *block* is done, then report only whole blocks.  Timing
    noise then changes which instances a run reports only when a whole
    extra block fits into *seconds*."""
    _enumerate_cached.cache_clear()
    ops: list[Op] = []
    marks = []
    cpu0 = proc.cpu_seconds()
    start = time.perf_counter()
    for inst in instances:
        tracer = Tracer() if traced else None
        ctx = SolveContext(tracer=tracer) if traced else None
        t0 = time.perf_counter()
        result = repro.solve(inst, ctx=ctx, **kwargs)
        t1 = time.perf_counter()
        ops.append(Op(inst, result, t1 - t0, tracer))
        marks.append((t1 - start, proc.cpu_seconds() - cpu0))
        if seconds is not None and len(ops) >= block and t1 - start >= seconds:
            break
    keep = len(ops) // block * block
    wall, cpu = marks[keep - 1]
    return ops[:keep], wall, cpu


def run(workload: SolveWorkload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One run of a solve workload; returns the report dict."""
    kwargs = workload.solve_kwargs
    setup = [cold_start_seconds(workload, root) for _ in range(COLD_STARTS)] if not trace else []
    repro.solve(workload.warmup_instance(), **kwargs)
    steal = proc.StealMeter()
    ops, wall, cpu = _solve_timed(
        workload.instances(seed), kwargs, seconds / 2 if trace else seconds, workload.block
    )
    rss = proc.peak_rss_mb()
    steal_share = steal.share()

    verifier = Verifier()
    tally = OpTally()
    _verify(ops, kwargs, verifier, tally)
    lat_ms = [op.wall_s * 1e3 for op in ops]
    report: dict[str, Any] = {
        "ops": len(ops),
        "wall_s": wall,
        "latencies_ms": lat_ms,
        "end_to_end": {
            "setup_s": median(setup) if setup else None,
            "ops_per_s": len(ops) / wall,
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p90_ms": percentile(lat_ms, 90),
            "makespan_over_lb": sum(
                op.result.makespan / op.instance.trivial_lower_bound() for op in ops
            )
            / len(ops),
            "error_rate": tally.error_rate,
            "peak_rss_mb": rss,
            "cpu_ms_per_op": cpu / len(ops) * 1e3,
        },
        "setup_samples_s": setup,
        "host_steal_share": steal_share,
        "tally": tally,
        "verifier": verifier,
    }
    if trace:
        report["per_layer"] = _traced(workload, ops, kwargs, tally, verifier)
    return report


def sample_layers(
    workload: SolveWorkload, seed: int, verifier: Verifier, tally: OpTally
) -> dict[str, float]:
    """Per-layer metrics of *workload* from the traced phases on the
    first :data:`SAMPLE_SLOTS` slots of its panel."""
    kwargs = workload.solve_kwargs
    repro.solve(workload.warmup_instance(), **kwargs)
    sample, _, _ = _solve_timed(itertools.islice(workload.instances(seed), SAMPLE_SLOTS), kwargs)
    _verify(sample, kwargs, verifier, tally)
    return _traced(workload, sample, kwargs, tally, verifier)


def _verify(ops: list[Op], kwargs: dict[str, Any], verifier: Verifier, tally: OpTally) -> None:
    for op in ops:
        tally.add(verifier.outcome(op.instance, op.result, kwargs["engine"], kwargs["eps"]))


def _traced(workload, untraced, kwargs, tally: OpTally, verifier: Verifier) -> dict[str, float]:
    """Phases B (and C) of a traced run, reduced to per-layer metrics."""
    instances = [op.instance for op in untraced]
    info0 = _enumerate_cached.cache_info()
    traced, _, _ = _solve_timed(instances, kwargs, traced=True)
    info1 = _enumerate_cached.cache_info()
    _verify(traced, kwargs, verifier, tally)

    n = len(traced)
    layer_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    states = 0
    backtracks = 0
    dp_wall = 0.0
    accounted = []
    span_total = 0.0
    for op in traced:
        tracer = op.tracer
        op_span = 0.0
        for root in tracer.roots:
            for kind, secs in self_times(root).items():
                layer_s[kind] = layer_s.get(kind, 0.0) + secs
            op_span += root.duration
        span_total += op_span
        accounted.append(op_span * 1e3)
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
        states += sum(int(s.attrs.get("table_size", 0)) for s in tracer.find("probe"))
        dp_wall += sum(s.duration for s in tracer.find("dp"))
        backtracks += len(tracer.find("backtrack"))

    def per_op_ms(*kinds: str) -> float:
        return sum(layer_s.get(k, 0.0) for k in kinds) / n * 1e3

    probes = counters.get("probes", 0)
    hits = info1.hits - info0.hits
    misses = info1.misses - info0.misses
    untraced_ms = [op.wall_s * 1e3 for op in untraced]
    traced_ms = [op.wall_s * 1e3 for op in traced]
    sweep_s = layer_s.get("run", 0.0) + layer_s.get("level", 0.0)
    out = {
        "bisection.probes": probes,
        "bisection.self_ms": per_op_ms("solve", "probe", "spec_round"),
        "rounding.ms": per_op_ms("round"),
        "rounding.reuse_ratio": ratio(counters.get("rounding_reuses", 0), probes),
        "configurations.ms": per_op_ms("enumerate"),
        "configurations.count": counters.get("configs_enumerated", 0),
        "configurations.cache_hit_ratio": ratio(hits, hits + misses),
        "dp.self_ms": per_op_ms("dp"),
        "dp.states": states,
        "dp.states_per_s": ratio(states, dp_wall),
        "reconstruct.ms": per_op_ms("reconstruct"),
        "trace.coverage": span_total / sum(op.wall_s for op in traced),
        "trace.overhead_ms": percentile(traced_ms, 50) - percentile(untraced_ms, 50),
        "trace.accounted_ms": percentile(accounted, 50),
        "trace.gap_ms": percentile(untraced_ms, 50) - percentile(accounted, 50),
    }
    # Some DP engines (the default ``dominance`` one among them) recover
    # the schedule inside their ``dp`` span; their backtrack is not a layer
    # of its own here, and the metric comes from a workload that has one.
    if backtracks:
        out["dp.backtrack_ms"] = per_op_ms("backtrack")
    if workload.serial_backend is not None:
        busy_us = sum(v for k, v in counters.items() if k.endswith(".busy_us"))
        workers = len({k for k in counters if k.endswith(".busy_us")})
        serial_kwargs = {**kwargs, "backend": workload.serial_backend}
        serial, _, _ = _solve_timed(instances, serial_kwargs)
        _verify(serial, serial_kwargs, verifier, tally)
        out.update(
            {
                "wavefront.sweep_ms": sweep_s / n * 1e3,
                "wavefront.diagonals": counters.get("wavefront.diagonals", 0),
                "wavefront.worker_busy_share": ratio(busy_us * 1e-6, workers * sweep_s),
                "wavefront.speedup_vs_serial": sum(op.wall_s for op in serial)
                / sum(op.wall_s for op in untraced),
            }
        )
    return out
