#!/usr/bin/env python
"""Run the complete evaluation as a declarative sweep and write a report.

This example drives :mod:`repro.experiments`, the declarative
experiment-orchestration subsystem: the paper's Table 1 and Table 3 grids
are expressed as :class:`~repro.experiments.spec.SweepSpec` objects (via
:meth:`~repro.analysis.harness.EvaluationHarness.sweep_spec`), executed by
:class:`~repro.experiments.runner.SweepRunner` with an on-disk result
cache.  The cache directory defaults to ``<output-file>.sweep-cache`` (or
``full_evaluation.sweep-cache`` in the working directory when printing to
stdout), so running the script twice serves every table cell from cache
the second time.  The Figure 3 / Figure 5 fidelity studies and the
extended reuse-distance check still come from the
:class:`~repro.analysis.harness.EvaluationHarness` convenience layer,
which shares its per-cell measurements with the sweep runner.

Run with:  python examples/full_evaluation.py [output-file] [cache-dir]
"""

from __future__ import annotations

import sys

from repro.analysis.comparison import regenerate_lossy_trace
from repro.analysis.harness import EvaluationHarness, EvaluationScale
from repro.analysis.reporting import render_table
from repro.analysis.reuse import reuse_distance_histogram
from repro.experiments import SweepRunner

WORKLOADS = ("410.bwaves", "429.mcf", "433.milc", "458.sjeng", "462.libquantum", "470.lbm")
FIGURE_WORKLOADS = ("429.mcf", "458.sjeng")


def sweep_section(harness: EvaluationHarness, table: str, title: str, cache_dir) -> str:
    """Run one harness table as a declarative cached sweep and render it."""
    spec = harness.sweep_spec(table)
    # The harness already generated and cached the filtered traces (the
    # length guard and the figure sections need them); hand them to the
    # runner so a cold run never filters a workload twice.
    runner = SweepRunner(
        spec, cache_dir=cache_dir, workers=2, trace_provider=harness.trace_provider()
    )
    result = runner.run()
    # One filter only (the paper's L1), so the sweep aggregates to a single
    # Table 1/3-shaped grid.
    (rows,) = result.tables().values()
    cached = result.cached_count()
    note = f"[{cached}/{len(result.rows)} cells from cache {cache_dir}]"
    return render_table(title, rows, result.codec_labels) + "\n" + note


def reuse_fidelity_section(harness: EvaluationHarness) -> str:
    """Extended check: lossy traces preserve the reuse-distance distribution."""
    lines = ["Reuse-distance fidelity (extension): L1 distance between exact and lossy distributions"]
    config = harness.scale.lossy_config()
    for name in FIGURE_WORKLOADS:
        trace = harness.trace(name)
        if len(trace) < 2 * harness.scale.interval_length:
            continue
        approx = regenerate_lossy_trace(trace.addresses, config)[0]
        distance = reuse_distance_histogram(trace.addresses).l1_distance(
            reuse_distance_histogram(approx)
        )
        lines.append(f"  {name:<18} {distance:.4f}")
    return "\n".join(lines)


def figure_sections(harness: EvaluationHarness) -> str:
    """The Figure 3 / Figure 5 fidelity studies (harness convenience layer)."""
    sections = []
    for name, result in harness.miss_ratio_fidelity(FIGURE_WORKLOADS).items():
        sections.append(
            f"Figure 3 [{name}]: max miss-ratio error {result.max_miss_ratio_error:.4f}, "
            f"chunks {result.num_chunks}/{result.num_intervals}, "
            f"lossy {result.bits_per_address:.2f} bits/address"
        )
    for name, distance in harness.predictor_fidelity(FIGURE_WORKLOADS).items():
        sections.append(f"Figure 5 [{name}]: C/DC breakdown distance {distance:.4f}")
    return "\n\n".join(sections)


def main() -> None:
    scale = EvaluationScale(references_per_workload=25_000, interval_length=4_000)
    harness = EvaluationHarness(scale, workloads=WORKLOADS)
    if len(sys.argv) > 2:
        cache_dir = sys.argv[2]
    elif len(sys.argv) > 1:
        cache_dir = sys.argv[1] + ".sweep-cache"
    else:
        cache_dir = "full_evaluation.sweep-cache"
    sections = [
        sweep_section(harness, "table1", "Table 1: lossless bits per address", cache_dir),
        sweep_section(harness, "table3", "Table 3: lossless vs lossy bits per address", cache_dir),
        figure_sections(harness),
        reuse_fidelity_section(harness),
    ]
    report = "\n\n".join(sections)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"report written to {sys.argv[1]}")
    else:
        print(report)


if __name__ == "__main__":
    main()
