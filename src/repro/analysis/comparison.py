"""Exact-vs-lossy comparison pipelines (the measurements behind Figures 3-5).

These helpers bundle the repeated experimental pattern of Section 5.3:

1. take an exact cache-filtered trace;
2. compress it into a lossy ATC container and decode the approximate trace;
3. feed both traces to a consumer (cache simulator or address predictor);
4. quantify how far apart the two results are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.metrics import distinct_address_ratio, sequence_length_preserved
from repro.cache.sweep import MissRatioSurface, miss_ratio_sweep
from repro.core.atc import MODE_LOSSY, _container_round_trip
from repro.core.lossy import LossyConfig
from repro.predictors.cdc import CdcConfig, PredictionBreakdown, simulate_cdc
from repro.traces.trace import AddressTrace, as_address_array

__all__ = [
    "LossyFidelityResult",
    "regenerate_lossy_trace",
    "compare_miss_ratio_surfaces",
    "compare_cdc_breakdowns",
]


@dataclass(frozen=True)
class LossyFidelityResult:
    """Everything the Figure 3/4 benches report for one trace.

    Attributes:
        trace_name: Label of the trace.
        exact_surface: Miss-ratio surface of the exact trace.
        lossy_surface: Miss-ratio surface of the regenerated trace.
        bits_per_address: BPA of the lossy container.
        num_chunks: Chunks stored in the lossy container.
        num_intervals: Intervals in the trace.
        distinct_ratio: Approximate/exact distinct-address ratio.
    """

    trace_name: str
    exact_surface: MissRatioSurface
    lossy_surface: MissRatioSurface
    bits_per_address: float
    num_chunks: int
    num_intervals: int
    distinct_ratio: float

    @property
    def max_miss_ratio_error(self) -> float:
        """Worst-case absolute miss-ratio difference over the whole grid."""
        return self.exact_surface.max_absolute_error(self.lossy_surface)

    @property
    def mean_miss_ratio_error(self) -> float:
        """Mean absolute miss-ratio difference over the whole grid."""
        return self.exact_surface.mean_absolute_error(self.lossy_surface)


def regenerate_lossy_trace(
    trace, config: LossyConfig = LossyConfig()
) -> Tuple[np.ndarray, float, int, int]:
    """Compress a trace into a lossy container, then decode it.

    Returns ``(approximate_addresses, bits_per_address, num_chunks,
    num_intervals)``; the size is the container's on-disk size.
    """
    values = trace.addresses if isinstance(trace, AddressTrace) else as_address_array(trace)
    with _container_round_trip(values, MODE_LOSSY, config) as decoder:
        approximate = decoder.read_all()
        bits = decoder.bits_per_address()
        num_chunks = len(decoder.container.chunk_ids())
        num_intervals = len(decoder.records)
    if not sequence_length_preserved(approximate, values):
        raise AssertionError("lossy codec violated the sequence-length invariant")
    return approximate, bits, num_chunks, num_intervals


def compare_miss_ratio_surfaces(
    trace,
    set_counts: Sequence[int],
    config: LossyConfig = LossyConfig(),
    max_associativity: int = 32,
    trace_name: str = "",
) -> LossyFidelityResult:
    """Figure 3 pipeline: exact-vs-lossy miss-ratio surfaces for one trace."""
    values = trace.addresses if isinstance(trace, AddressTrace) else as_address_array(trace)
    name = trace_name or getattr(trace, "name", "")
    approximate, bpa, num_chunks, num_intervals = regenerate_lossy_trace(values, config)
    exact_surface = miss_ratio_sweep(values, set_counts, max_associativity, trace_name=name)
    lossy_surface = miss_ratio_sweep(approximate, set_counts, max_associativity, trace_name=name)
    return LossyFidelityResult(
        trace_name=name,
        exact_surface=exact_surface,
        lossy_surface=lossy_surface,
        bits_per_address=bpa,
        num_chunks=num_chunks,
        num_intervals=num_intervals,
        distinct_ratio=distinct_address_ratio(approximate, values),
    )


def compare_cdc_breakdowns(
    trace,
    config: LossyConfig = LossyConfig(),
    cdc_config: CdcConfig = CdcConfig(),
) -> Tuple[PredictionBreakdown, PredictionBreakdown, float]:
    """Figure 5 pipeline: C/DC outcome breakdowns for exact and lossy traces.

    Returns ``(exact_breakdown, lossy_breakdown, l1_distance)``.
    """
    values = trace.addresses if isinstance(trace, AddressTrace) else as_address_array(trace)
    approximate, _, _, _ = regenerate_lossy_trace(values, config)
    exact_breakdown = simulate_cdc(values, cdc_config)
    lossy_breakdown = simulate_cdc(approximate, cdc_config)
    return exact_breakdown, lossy_breakdown, exact_breakdown.distance(lossy_breakdown)
