"""Miss-ratio sweeps over (number of sets, associativity) grids.

Figure 3 of the paper plots the miss ratio of exact and lossy traces for a
grid of cache configurations: the number of sets varies from 2k to 512k and
the associativity from 1 to 32, with LRU replacement.  :func:`miss_ratio_sweep`
produces the same grid from a trace using the single-pass stack-distance
simulator (one pass per set count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cache.stackdist import LruStackSimulator, MissRatioCurve

__all__ = ["MissRatioSurface", "miss_ratio_sweep", "DEFAULT_ASSOCIATIVITIES"]

#: Associativities plotted in Figure 3 of the paper.
DEFAULT_ASSOCIATIVITIES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class MissRatioSurface:
    """Miss ratios over a (num_sets, associativity) grid for one trace.

    Attributes:
        trace_name: Label of the trace the surface was measured from.
        curves: Mapping from set count to the corresponding miss-ratio curve.
    """

    trace_name: str
    curves: Dict[int, MissRatioCurve]

    def miss_ratio(self, num_sets: int, associativity: int) -> float:
        """Miss ratio of the ``num_sets`` x ``associativity`` LRU cache."""
        return self.curves[num_sets].miss_ratio(associativity)

    def series(self, num_sets: int, associativities: Sequence[int] = DEFAULT_ASSOCIATIVITIES) -> List[float]:
        """One Figure-3 curve: miss ratio vs associativity for a set count."""
        return [self.miss_ratio(num_sets, a) for a in associativities]

    @property
    def set_counts(self) -> List[int]:
        """Sorted list of simulated set counts."""
        return sorted(self.curves)

    def max_absolute_error(self, other: "MissRatioSurface") -> float:
        """Largest absolute miss-ratio difference against another surface.

        Used to quantify how far a lossy trace's surface is from the exact
        trace's surface (the paper's visual claim, made numeric).
        """
        worst = 0.0
        for num_sets, curve in self.curves.items():
            other_curve = other.curves[num_sets]
            for associativity in curve.associativities:
                delta = abs(
                    curve.miss_ratio(associativity) - other_curve.miss_ratio(associativity)
                )
                worst = max(worst, delta)
        return worst

    def mean_absolute_error(self, other: "MissRatioSurface") -> float:
        """Mean absolute miss-ratio difference against another surface."""
        total = 0.0
        count = 0
        for num_sets, curve in self.curves.items():
            other_curve = other.curves[num_sets]
            for associativity in curve.associativities:
                total += abs(
                    curve.miss_ratio(associativity) - other_curve.miss_ratio(associativity)
                )
                count += 1
        return total / count if count else 0.0


def _sweep_pass_task(task) -> MissRatioCurve:
    """Single-set-count simulation pass."""
    blocks, num_sets, max_associativity = task
    simulator = LruStackSimulator(num_sets, max_associativity=max_associativity)
    simulator.access_trace(blocks)
    return simulator.curve()


def miss_ratio_sweep(
    blocks: Iterable[int],
    set_counts: Sequence[int],
    max_associativity: int = 32,
    trace_name: str = "",
    workers: int = 1,
) -> MissRatioSurface:
    """Simulate a trace once per set count and return the full surface.

    The per-set-count passes are independent, so with ``workers > 1`` they
    run concurrently on :func:`repro.core.parallel.map_ordered` — the same
    worker layer the chunk-compression pipeline and the sweep runner use.
    The returned surface is identical for every worker count.

    Args:
        blocks: Block-address trace (any iterable of ints, consumed fully).
        set_counts: Set counts to simulate (each is a separate pass).
        max_associativity: Largest associativity of interest.
        trace_name: Label stored in the returned surface.
        workers: Number of set-count passes simulated concurrently
            (``0``/``None`` = one per usable CPU, like the rest of the pipeline).

    Example:
        >>> surface = miss_ratio_sweep(range(4096), set_counts=(64, 128))
        >>> surface.set_counts
        [64, 128]
        >>> surface.miss_ratio(64, 4)        # a pure streaming trace always misses
        1.0
    """
    from repro.core.parallel import map_ordered
    from repro.traces.trace import as_address_array

    # Normalise to the kernel's native ``uint64`` layout up front: every
    # per-set-count pass then hands the stack kernel one contiguous array.
    materialised = as_address_array(
        blocks if isinstance(blocks, np.ndarray) else list(blocks)
    )
    set_counts = list(set_counts)
    tasks = [(materialised, num_sets, max_associativity) for num_sets in set_counts]
    passes = map_ordered(_sweep_pass_task, tasks, workers=workers)
    curves: Dict[int, MissRatioCurve] = dict(zip(set_counts, passes))
    return MissRatioSurface(trace_name=trace_name, curves=curves)
