"""DP engine benchmark: which sequential engine is fastest on which cell.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_engines.py             # measure + gate
    PYTHONPATH=src python benchmarks/bench_engines.py --markdown  # table from BENCH_dp.json

Times ``repro.solve(instance, engine="ptas", dp_engine=E)`` — the
facade users call — for every :data:`repro.core.dp.SEQUENTIAL_ENGINES`
entry ``E`` over two kinds of workload cell:

* ``service`` — the PTAS strata of the service benchmark stream
  (``perfbench/workloads.py``, ``SERVICE_STRATA``): tiny tables where
  fixed per-solve costs dominate;
* ``panel`` — the four families of the paper's PTAS panel at ``m = 8``,
  ``n = 40``, ``eps = 0.2`` (the ``ptas_paper`` workload), where the DP
  table dominates.

Each cell solves the same seeded instances with every engine.  The
engine order rotates from instance to instance, so no engine always
pays (or always skips) the shared configuration-enumeration cache; one
untimed solve per (cell, engine) warms imports first.  A cell's figure
is the median wall time per solve; its winner is the engine with the
lowest median.

Gate (hard — non-zero exit on failure): every engine that is not a
declared oracle (:data:`repro.core.dp.ORACLE_ENGINES`) is the winner of
at least one cell.  An engine that wins nowhere and diffs against
nothing has no reason to exist.

Results land under the ``"engines"`` section of ``BENCH_dp.json``, one
run per ``(cell, engine)``, fingerprint-stamped via
:mod:`repro.io.benchjson`, with the per-cell ``winners``.  ``--markdown``
prints the recorded section as the measured table of ``docs/engines.md``
without re-measuring.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import repro
from repro.core.dp import ORACLE_ENGINES, SEQUENTIAL_ENGINES
from repro.io.benchjson import instance_fingerprint, load_bench, merge_runs, update_section
from repro.workloads.generator import make_instance

#: (kind, family, machines, jobs, eps, instances) per cell.  The service
#: rows mirror the PTAS strata of ``perfbench/workloads.py``.
CELLS = (
    ("service", "u_10", 4, 24, 0.2, 24),
    ("service", "u_100", 3, 18, 0.2, 24),
    ("service", "u_narrow", 4, 20, 0.25, 24),
    ("service", "lpt_adversarial", 3, 7, 0.3, 24),
    ("panel", "u_2m", 8, 40, 0.2, 6),
    ("panel", "u_10", 8, 40, 0.2, 6),
    ("panel", "u_100", 8, 40, 0.2, 6),
    ("panel", "u_10n", 8, 40, 0.2, 6),
)
ENGINES = tuple(SEQUENTIAL_ENGINES)
SECTION = "engines"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dp.json"
RUN_KEY = ("cell", "engine")


def cell_name(kind: str, family: str, m: int, n: int) -> str:
    return f"{kind} {family} m{m} n{n}"


def workload_descriptor() -> dict:
    """What the fingerprint covers: the cells and the engines timed."""
    return {"cells": [list(c) for c in CELLS], "engines": list(ENGINES)}


def measure_cell(kind: str, family: str, m: int, n: int, eps: float, count: int) -> list[dict]:
    """Median ms per ``repro.solve`` for every engine on one cell."""
    instances = [make_instance(family, m, n, seed=seed) for seed in range(count)]
    for engine in ENGINES:
        repro.solve(instances[0], "ptas", eps=eps, dp_engine=engine)
    times: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    for i, inst in enumerate(instances):
        for engine in ENGINES[i % len(ENGINES):] + ENGINES[: i % len(ENGINES)]:
            t0 = time.perf_counter()
            result = repro.solve(inst, "ptas", eps=eps, dp_engine=engine)
            times[engine].append((time.perf_counter() - t0) * 1e3)
            if not result.ok:
                raise AssertionError(f"{engine} failed on {family}: {result.error}")
    name = cell_name(kind, family, m, n)
    runs = []
    for engine in ENGINES:
        q1, median, q3 = statistics.quantiles(times[engine], n=4)
        runs.append(
            {
                "cell": name,
                "engine": engine,
                "eps": eps,
                "instances": count,
                "median_ms": round(statistics.median(times[engine]), 3),
                "q1_ms": round(q1, 3),
                "q3_ms": round(q3, 3),
            }
        )
    return runs


def winners_of(runs: list[dict]) -> dict[str, str]:
    """The fastest engine (lowest median) of every cell."""
    best: dict[str, dict] = {}
    for run in runs:
        if run["cell"] not in best or run["median_ms"] < best[run["cell"]]["median_ms"]:
            best[run["cell"]] = run
    return {cell: run["engine"] for cell, run in best.items()}


def gate_failures(winners: dict[str, str]) -> list[str]:
    return [
        f"{engine} is fastest on no cell and is not a declared oracle"
        for engine in ENGINES
        if engine not in ORACLE_ENGINES and engine not in winners.values()
    ]


def markdown(section: dict) -> str:
    """The recorded section as a table: median ms per solve, winner in bold."""
    medians = {(r["cell"], r["engine"]): r["median_ms"] for r in section["runs"]}
    lines = [
        "| cell | " + " | ".join(f"`{e}`" for e in ENGINES) + " | fastest |",
        "|---|" + "---:|" * len(ENGINES) + "---|",
    ]
    for kind, family, m, n, _eps, _count in CELLS:
        cell = cell_name(kind, family, m, n)
        winner = section["winners"][cell]
        cols = [
            f"**{medians[cell, e]:.2f}**" if e == winner else f"{medians[cell, e]:.2f}"
            for e in ENGINES
        ]
        lines.append(f"| {cell} | " + " | ".join(cols) + f" | `{winner}` |")
    return "\n".join(lines)


def main() -> int:
    fingerprint = instance_fingerprint(workload_descriptor())
    print(f"timing {len(ENGINES)} engines on {len(CELLS)} cells (fingerprint {fingerprint})")
    runs: list[dict] = []
    for kind, family, m, n, eps, count in CELLS:
        cell_runs = measure_cell(kind, family, m, n, eps, count)
        runs.extend(cell_runs)
        print(
            f"{cell_name(kind, family, m, n):32s} "
            + "  ".join(f"{r['engine']}={r['median_ms']:.2f}ms" for r in cell_runs)
        )
    winners = winners_of(runs)
    failures = gate_failures(winners)
    previous = load_bench(OUTPUT).get(SECTION, {})
    section = {
        "benchmark": "median ms per repro.solve(engine='ptas') per DP engine and cell",
        "fingerprint": fingerprint,
        "workload": workload_descriptor(),
        "runs": merge_runs(previous.get("runs"), runs, fingerprint, key_fields=RUN_KEY),
        "winners": winners,
        "gate": {
            "rule": "every engine outside oracle_engines wins at least one cell",
            "oracle_engines": sorted(ORACLE_ENGINES),
            "passed": not failures,
        },
    }
    update_section(OUTPUT, SECTION, section)
    print(f"wrote {SECTION!r} section of {OUTPUT}")
    print(markdown(section))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    if "--markdown" in sys.argv[1:]:
        print(markdown(load_bench(OUTPUT)[SECTION]))
        sys.exit(0)
    sys.exit(main())
