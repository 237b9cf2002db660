#!/usr/bin/env python
"""Figure 3 / Figure 4 style study: do lossy traces preserve miss ratios?

For a few SPEC-like workloads this script compresses the cache-filtered
trace into a lossy ATC container, decodes the approximate trace and compares
miss-ratio-vs-associativity curves for several cache sizes.  It then repeats
the Figure 4 ablation on a phased workload: with byte translation disabled,
the apparent working set shrinks and the miss-ratio curve is badly distorted.

Run with:  python examples/cache_fidelity_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.comparison import compare_miss_ratio_surfaces, regenerate_lossy_trace
from repro.analysis.reporting import render_series
from repro.cache.sweep import miss_ratio_sweep
from repro.core.lossy import LossyConfig
from repro.traces.filter import filtered_spec_like_trace

WORKLOADS = ["429.mcf", "458.sjeng", "470.lbm"]
SET_COUNTS = [64, 256, 1024]
ASSOCIATIVITIES = [1, 2, 4, 8, 16, 32]


def fidelity_study() -> None:
    for name in WORKLOADS:
        trace = filtered_spec_like_trace(name, 40_000, seed=0)
        if len(trace) < 4_000:
            continue
        config = LossyConfig(interval_length=max(len(trace) // 8, 2_000))
        result = compare_miss_ratio_surfaces(
            trace.addresses, set_counts=SET_COUNTS, config=config, trace_name=name
        )
        series = {}
        for sets in SET_COUNTS:
            series[f"exact {sets} sets"] = result.exact_surface.series(sets, ASSOCIATIVITIES)
            series[f"lossy {sets} sets"] = result.lossy_surface.series(sets, ASSOCIATIVITIES)
        print(
            render_series(
                f"Miss ratio vs associativity — {name} "
                f"(chunks {result.num_chunks}/{result.num_intervals}, "
                f"lossy {result.bits_per_address:.2f} bits/address, "
                f"max |error| {result.max_miss_ratio_error:.3f})",
                x_label="associativity",
                x_values=ASSOCIATIVITIES,
                series=series,
            )
        )
        print()


def translation_ablation() -> None:
    """Figure 4: disabling byte translation distorts the working set."""
    rng = np.random.default_rng(3)
    phases = [
        rng.integers(0, 4_096, size=20_000, dtype=np.uint64) + np.uint64((index + 1) << 22)
        for index in range(4)
    ]
    trace = np.concatenate(phases)
    exact = miss_ratio_sweep(trace, set_counts=[256])
    series = {"exact": exact.series(256, ASSOCIATIVITIES)}
    for enabled in (True, False):
        config = LossyConfig(interval_length=20_000, enable_translation=enabled)
        approx = regenerate_lossy_trace(trace, config)[0]
        surface = miss_ratio_sweep(approx, set_counts=[256])
        label = "translation" if enabled else "no translation"
        series[label] = surface.series(256, ASSOCIATIVITIES)
    print(
        render_series(
            "Figure 4 ablation — phased workload, 256 sets",
            x_label="associativity",
            x_values=ASSOCIATIVITIES,
            series=series,
        )
    )


def main() -> None:
    fidelity_study()
    translation_ablation()


if __name__ == "__main__":
    main()
