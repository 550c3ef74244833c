"""One end-to-end benchmark for solves, the wavefront and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ptas_paper --seed 1 --seconds 12 --trace 0

Workloads (``perfbench/workloads.py`` says what each one generates, and
``BENCHMARK.json`` why it was chosen):

* ``ptas_paper`` — sequential ``repro.solve(engine="ptas", eps=0.2)``;
* ``wavefront_threads`` — sequential thread-backend wavefront PTAS;
* ``service_single`` — closed loop against ``python -m repro serve``;
* ``service_pool_store`` — the same against ``serve --pool-workers auto
  --store DIR``.

``BENCHMARK.json`` gates the first and the third.  A traced run reports
every per-layer metric: it samples the layers its workload lacks from the
workloads in its ``traced_also`` (the wavefront and both deployments for
``ptas_paper``; the wavefront and the pooled deployment for
``service_single``), and the full report names the workload each metric
was measured on.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from the ``repro.obs`` spans,
the server's ``op=stats`` and the benchmark's own timers.  Either way a
table of every metric with its unit goes to standard output, a full
report to ``perfbench/out/``, and the last line is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

Every answer is verified outside the timed window (``perfbench/checks.py``);
failures count in ``error_rate``, which the table prints and the last
line carries as ``failed`` over ``attempted``.  The run stops with exit
code 2 when ``src/repro`` is missing, with exit code 3 when the
fingerprint of a gated workload no longer matches the one
``BENCHMARK.json`` stamps into its ``why`` (a changed workload needs a
fresh baseline), and with exit code 4 when a traced run measured no
value for a per-layer metric.  No result line is printed then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
_FINGERPRINT = re.compile(r"fingerprint=([0-9a-f]{12})")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(2, f"no source tree at {ROOT / 'src' / 'repro'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(2, f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.seconds <= 0:
        return _fail(2, "--seconds must be positive")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.parallel.cpus import usable_cpus

    from perfbench import service, solves
    from perfbench.workloads import WORKLOADS, SolveWorkload, fingerprint

    if args.workload not in WORKLOADS:
        return _fail(2, f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    fp = fingerprint(workload)
    if args.workload in whys:
        stamped = _FINGERPRINT.search(whys[args.workload])
        if stamped is None or stamped.group(1) != fp:
            return _fail(
                3,
                f"workload {args.workload} now has fingerprint={fp}, but BENCHMARK.json "
                f"stamps {stamped.group(0) if stamped else 'none'}; the workload changed",
            )

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    sources: dict[str, str] = {}
    try:
        if isinstance(workload, SolveWorkload):
            report = solves.run(workload, args.seed, args.seconds, bool(args.trace), ROOT)
        else:
            report = service.run(workload, args.seed, args.seconds, bool(args.trace), ROOT, scratch)
        if args.trace:
            sources = dict.fromkeys(report["per_layer"], args.workload)
            for other in workload.traced_also:
                layers = _sample_layers(other, args.seed, report, scratch)
                for name, value in layers.items():
                    # Coverage, overhead and gap belong to the run's own workload.
                    if name not in sources and not name.startswith("trace."):
                        report["per_layer"][name] = value
                        sources[name] = other.name
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    notes: dict[str, str] = {}
    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = report["per_layer"]
        missing = [name for name, _ in names if name not in values]
        if missing:
            return _fail(4, f"the traced run of {args.workload} measured no {missing}")
        if usable_cpus() < 2:
            notes["wavefront.speedup_vs_serial"] = (
                f"{usable_cpus()} usable CPU(s) < 2: the threads cannot run in parallel"
            )
        for name, source in sources.items():
            if source != args.workload:
                notes.setdefault(name, f"measured on a sample of {source}")
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = report["end_to_end"]

    tally = report["tally"]
    metrics = {}
    gated = "" if args.workload in whys else "  (not gated by BENCHMARK.json)"
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  fingerprint={fp}{gated}")
    print(
        f"  {report['ops']} ops in {report['wall_s']:.2f} s; outcomes {tally.counts}; "
        f"hypervisor took {report['host_steal_share']:.1%} of CPU time"
    )
    for name, unit in names:
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {values[name]:14.6f} {unit:8s}{note}".rstrip())
    if not args.trace:
        print(f"  {'error_rate':32s} {tally.error_rate:14.6f} share")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fp,
        "usable_cpus": usable_cpus(),
        "outcomes": tally.counts,
        "exact_cross_checks": report["verifier"].cp_checks,
        "setup_samples_s": report["setup_samples_s"],
        "host_steal_share": report["host_steal_share"],
        "end_to_end": report["end_to_end"],
        "per_layer": report.get("per_layer", {}),
        "per_layer_sources": sources,
        "notes": notes,
        "latencies_ms": report["latencies_ms"],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    correct = tally.counts["unverified"] == 0 and tally.counts["error"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _sample_layers(other, seed: int, report: dict, scratch: Path) -> dict[str, float]:
    """Per-layer metrics of workload *other*, measured on a short sample
    of its inputs; a service run's own requests are replayed through
    another deployment as they were sent."""
    from perfbench import service, solves
    from perfbench.workloads import SolveWorkload

    verifier, tally = report["verifier"], report["tally"]
    if isinstance(other, SolveWorkload):
        return solves.sample_layers(other, seed, verifier, tally)
    requests = report.get("sent")
    if requests is None:
        requests = list(itertools.islice(other.requests(seed), service.SAMPLE_REQUESTS))
    return service.sample_layers(other, requests, ROOT, scratch, verifier, tally)


if __name__ == "__main__":
    sys.exit(main())
