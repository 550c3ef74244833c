#!/usr/bin/env python3
"""Scenario: running and analyzing a full evaluation campaign.

Drives a miniature version of the paper's 480-run evaluation through
:mod:`repro.experiments.campaign`, then applies the analysis toolkit:
bootstrap confidence intervals on the per-type speedups, Amdahl fits and
Karp–Flatt serial fractions explaining the saturation, and a CSV export
for external plotting.

Run:  python examples/campaign_analysis.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.scaling import amdahl_speedup
from repro.experiments.campaign import run_campaign
from repro.experiments.harness import ExperimentConfig
from repro.experiments.plots import speedup_plot


def main() -> None:
    cores = (2, 4, 8, 16)
    # HiGHS rarely proves optimality on these n=30 instances, so every IP
    # reference runs to its limit; one second is plenty for an incumbent.
    config = ExperimentConfig(cores=cores, ip_time_limit=1.0)
    grid = [("u_100", 10, 30), ("u_10n", 10, 30)]
    print("Running a miniature campaign (2 types x 3 instances)...\n")
    result = run_campaign(grid, instances_per_type=3, config=config, base_seed=1)

    print(result.render())

    print("\nSpeedup curves with the Amdahl fit's prediction:")
    for agg in result.aggregates:
        means = [agg.speedup_ci(c).mean for c in cores]
        diag = agg.scaling_diagnostics(cores)
        fitted = [
            amdahl_speedup(diag["serial_fraction"], c) for c in cores
        ]
        print()
        print(
            speedup_plot(
                cores,
                {"measured": means, "amdahl fit": fitted},
                title=agg.key.label(),
            )
        )
        print(
            f"  -> serial fraction {diag['serial_fraction']:.3f}, "
            f"Amdahl ceiling {diag['amdahl_max_speedup']:.1f}x, "
            f"Karp-Flatt at 16 cores {diag['karp_flatt_at_max']:.3f}"
        )

    with tempfile.TemporaryDirectory() as tmp:
        paths = result.export_csv(Path(tmp))
        print("\nCSV export:")
        for p in paths:
            print(f"  {p.name}: {len(p.read_text().splitlines()) - 1} data rows")


if __name__ == "__main__":
    main()
