#!/usr/bin/env python3
"""Scenario: reproducing the paper's speedup curves on one instance.

Runs the parallel approximation algorithm on a U(1, 10n) instance across
1-32 simulated processors and prints the speedup curve with per-level
utilization detail — the anatomy of Fig. 2(a)/3(a): near-linear scaling
while every anti-diagonal of the DP table is wider than P, saturation
once the narrow head/tail diagonals dominate.

Also runs the real shared-memory ``thread`` backend against the
single-worker ``numpy-serial`` sweep: both fill the same table, and the
wall times show what the threads buy (or cost) on this host.

Run:  python examples/speedup_study.py
"""

from __future__ import annotations

import time

from repro import make_instance, parallel_ptas
from repro.core.bounds import makespan_bounds
from repro.core.dp import DPProblem
from repro.core.parallel_dp import build_level_index, parallel_dp
from repro.core.rounding import round_instance


def main() -> None:
    inst = make_instance("u_10n", m=10, n=30, seed=3)
    print(f"Instance: {inst}\n")

    # --- the wavefront structure ------------------------------------
    target = makespan_bounds(inst).midpoint()
    rounded = round_instance(inst, target, k=4)
    problem = DPProblem(rounded.class_sizes, rounded.class_counts, target)
    idx = build_level_index(problem)
    print(
        f"DP table at T={target}: {rounded.num_classes} classes, "
        f"sigma={problem.table_size} states over {idx.num_levels} "
        f"anti-diagonals"
    )
    print("anti-diagonal widths q_l (parallelism available per level):")
    sizes = idx.sizes
    peak = max(sizes)
    for l in range(0, idx.num_levels, max(1, idx.num_levels // 12)):
        bar = "#" * int(sizes[l] / peak * 50)
        print(f"  l={l:3d}  q={sizes[l]:5d} |{bar}")

    # --- the speedup curve -------------------------------------------
    print("\nsimulated speedup of the full parallel PTAS:")
    print(f"{'P':>4} {'speedup':>8} {'efficiency':>11}")
    for p in (1, 2, 4, 8, 16, 32):
        result = parallel_ptas(inst, 0.3, num_workers=p)
        s = result.simulated_speedup or 1.0
        print(f"{p:>4} {s:>8.2f} {s / p:>10.1%}")

    # --- the real backend ----------------------------------------------
    print("\nthread backend against the numpy-serial sweep (wall clock;")
    print("threads pay one barrier per tile diagonal, so they win only")
    print("on wide tables and hosts with spare cores):")
    t0 = time.perf_counter()
    serial = parallel_dp(problem, 1, "numpy-serial")
    serial_ms = (time.perf_counter() - t0) * 1e3
    print(f"  numpy-serial    OPT={serial.opt}  {serial_ms:7.2f} ms")
    for workers in (2, 4):
        t0 = time.perf_counter()
        res = parallel_dp(problem, workers, "thread")
        ms = (time.perf_counter() - t0) * 1e3
        status = "OK" if res.opt == serial.opt else "MISMATCH"
        print(f"  thread w={workers}      OPT={res.opt}  {ms:7.2f} ms  ({status})")


if __name__ == "__main__":
    main()
