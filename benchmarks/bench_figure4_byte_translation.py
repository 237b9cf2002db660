"""Figure 4 — the importance of byte translation.

The paper disables byte translation on trace 470.lbm and shows the
miss-ratio curve (256k sets) becomes badly distorted: "the cache size that
is necessary to remove capacity misses looks twice smaller with the
approximate trace than it is in reality".

This bench reproduces the ablation on a phased workload whose successive
phases touch disjoint address regions (the 470.lbm-like analogue):

* with translation, the regenerated trace keeps nearly the full footprint
  and a close miss-ratio curve;
* without translation, the apparent footprint collapses towards a single
  phase's worth of addresses and the miss-ratio curve drops far below the
  exact one.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis.comparison import regenerate_lossy_trace
from repro.analysis.metrics import distinct_address_ratio
from repro.analysis.reporting import render_series
from repro.cache.sweep import DEFAULT_ASSOCIATIVITIES, miss_ratio_sweep
from repro.core.lossy import LossyConfig

_PHASES = 5
_PHASE_LENGTH = 20_000
_BLOCKS_PER_PHASE = 4_096
_SET_COUNT = 256


def _phased_disjoint_trace() -> np.ndarray:
    rng = np.random.default_rng(470)
    phases = [
        rng.integers(0, _BLOCKS_PER_PHASE, size=_PHASE_LENGTH, dtype=np.uint64)
        + np.uint64((index + 1) * (_BLOCKS_PER_PHASE * 4))
        for index in range(_PHASES)
    ]
    return np.concatenate(phases)


def _run_ablation() -> Dict[str, object]:
    trace = _phased_disjoint_trace()
    exact_surface = miss_ratio_sweep(trace, set_counts=[_SET_COUNT])
    outcome = {"exact": exact_surface, "trace": trace}
    for label, enabled in (("translation", True), ("no translation", False)):
        config = LossyConfig(interval_length=_PHASE_LENGTH, enable_translation=enabled)
        approx = regenerate_lossy_trace(trace, config)[0]
        outcome[label] = {
            "surface": miss_ratio_sweep(approx, set_counts=[_SET_COUNT]),
            "distinct_ratio": distinct_address_ratio(approx, trace),
        }
    return outcome


def test_figure4_byte_translation_ablation(benchmark):
    outcome = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    exact_surface = outcome["exact"]
    with_translation = outcome["translation"]
    without_translation = outcome["no translation"]
    series = {
        "exact": exact_surface.series(_SET_COUNT, DEFAULT_ASSOCIATIVITIES),
        "translation": with_translation["surface"].series(_SET_COUNT, DEFAULT_ASSOCIATIVITIES),
        "no translation": without_translation["surface"].series(_SET_COUNT, DEFAULT_ASSOCIATIVITIES),
    }
    print()
    print(
        render_series(
            f"Figure 4 (reproduction) — phased disjoint regions, {_SET_COUNT} sets",
            x_label="associativity",
            x_values=DEFAULT_ASSOCIATIVITIES,
            series=series,
        )
    )
    print(
        f"\ndistinct-address ratio: translation {with_translation['distinct_ratio']:.2f}, "
        f"no translation {without_translation['distinct_ratio']:.2f}"
    )
    # With translation the footprint survives; without it the footprint
    # collapses towards 1/number-of-phases of the real one.
    assert with_translation["distinct_ratio"] > 0.8
    assert without_translation["distinct_ratio"] < 0.5
    # The no-translation curve underestimates the miss ratio at large caches
    # (capacity misses vanish too early), exactly the paper's distortion.
    exact_large = exact_surface.miss_ratio(_SET_COUNT, 32)
    no_translation_large = without_translation["surface"].miss_ratio(_SET_COUNT, 32)
    translation_large = with_translation["surface"].miss_ratio(_SET_COUNT, 32)
    assert no_translation_large < exact_large - 0.1
    assert abs(translation_large - exact_large) < 0.1
