"""Ablation — the myopic interval problem (Section 5).

The paper's motivating example: a loop accessing N distinct addresses at
random.  If the interval length L is much smaller than N, the compressed
trace (without byte translation this is unavoidable; with translation it is
mitigated) contains far fewer distinct addresses than the original, so cache
sizing decisions based on it are misleading.

This bench measures the distinct-address ratio of the regenerated trace as
a function of L, with byte translation on and off:

* without translation, small L collapses the footprint (the myopic interval
  problem in its raw form);
* with translation, the footprint stays close to the original even for
  small L — the paper's fix works.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis.comparison import regenerate_lossy_trace
from repro.analysis.metrics import distinct_address_ratio
from repro.core.lossy import LossyConfig

_WORKING_SET_BLOCKS = 8_192
_TRACE_LENGTH = 80_000
_INTERVAL_LENGTHS = (5_000, 10_000, 20_000, 40_000)


def _random_working_set_trace() -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.integers(0, _WORKING_SET_BLOCKS, size=_TRACE_LENGTH, dtype=np.uint64) + np.uint64(1 << 24)


def _sweep_interval_lengths() -> Dict[int, Dict[str, float]]:
    trace = _random_working_set_trace()
    results = {}
    for interval_length in _INTERVAL_LENGTHS:
        row = {}
        for label, enabled in (("translation", True), ("no_translation", False)):
            config = LossyConfig(interval_length=interval_length, enable_translation=enabled)
            approx = regenerate_lossy_trace(trace, config)[0]
            row[label] = distinct_address_ratio(approx, trace)
        results[interval_length] = row
    return results


def test_ablation_interval_length_myopia(benchmark):
    results = benchmark.pedantic(_sweep_interval_lengths, rounds=1, iterations=1)
    print()
    print(
        "Ablation: interval length vs distinct-address ratio "
        f"(random working set of {_WORKING_SET_BLOCKS} blocks, trace length {_TRACE_LENGTH})"
    )
    print(f"{'L':>8} {'with translation':>18} {'without translation':>21}")
    for interval_length in _INTERVAL_LENGTHS:
        row = results[interval_length]
        print(f"{interval_length:>8} {row['translation']:>18.3f} {row['no_translation']:>21.3f}")
    smallest = results[_INTERVAL_LENGTHS[0]]
    # The raw myopic-interval problem: with L << N (5000 intervals over an
    # 8192-block working set) and no translation, the regenerated footprint
    # collapses towards the single-interval footprint.
    assert smallest["no_translation"] < 0.75
    # The byte-translation fix keeps the footprint close to the original.
    assert smallest["translation"] > 0.85
    # Larger intervals shrink the problem even without translation.
    largest = results[_INTERVAL_LENGTHS[-1]]
    assert largest["no_translation"] >= smallest["no_translation"]
