"""Evaluation metrics used throughout the benchmark harness.

The paper reports a small set of metrics; this module implements each of
them plus the fidelity metrics needed to make the figure comparisons
numeric:

* **bits per address (BPA)** — compressed size in bits divided by trace
  length; "the smaller the BPA, the higher the compression ratio"
  (Tables 1 and 3);
* **compression ratio** — uncompressed size over compressed size
  (Figure 8's "compression ratio of 10");
* **miss-ratio error** — absolute difference between the miss-ratio curves
  of the exact and the lossy trace (Figure 3, made quantitative);
* **distinct-address ratio** — the footprint of the regenerated trace over
  the footprint of the original, the quantity distorted by the myopic
  interval problem (Section 5, Figure 4);
* **predictor-breakdown distance** — L1 distance between the Figure 5
  outcome distributions of the exact and lossy traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.traces.trace import ADDRESS_BYTES, as_address_array, distinct_count

__all__ = [
    "bits_per_address",
    "compression_ratio",
    "arithmetic_mean",
    "distinct_address_ratio",
    "sequence_length_preserved",
    "BpaTableRow",
]


def bits_per_address(compressed_size_bytes: int, address_count: int) -> float:
    """Compressed bits divided by the number of trace addresses.

    Example:
        >>> bits_per_address(1000, 4000)     # 1000 bytes for 4000 addresses
        2.0
    """
    if address_count <= 0:
        return 0.0
    return 8.0 * compressed_size_bytes / address_count


def compression_ratio(compressed_size_bytes: int, address_count: int) -> float:
    """Uncompressed size (8 bytes per address) over compressed size.

    Example:
        >>> compression_ratio(1000, 4000)    # 32000 raw bytes in 1000
        32.0
    """
    if compressed_size_bytes <= 0:
        return float("inf") if address_count else 0.0
    return (address_count * ADDRESS_BYTES) / compressed_size_bytes


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the aggregation used by Table 1 and Table 3).

    Example:
        >>> arithmetic_mean([1.0, 2.0, 3.0])
        2.0
    """
    values = list(values)
    if not values:
        return 0.0
    return float(np.mean(values))


def distinct_address_ratio(approximate, exact) -> float:
    """Footprint of the approximate trace relative to the exact trace.

    Close to 1.0 means the lossy trace preserves the number of distinct
    addresses; much below 1.0 is the signature of the myopic interval
    problem the byte translations are designed to avoid.
    """
    exact_distinct = distinct_count(exact)
    approx_distinct = distinct_count(approximate)
    if exact_distinct == 0:
        return 1.0 if approx_distinct == 0 else float("inf")
    return approx_distinct / exact_distinct


def sequence_length_preserved(approximate, exact) -> bool:
    """Lossy compression must preserve the number of addresses (Section 5)."""
    return int(as_address_array(approximate).size) == int(as_address_array(exact).size)


@dataclass(frozen=True)
class BpaTableRow:
    """One row of a Table 1 / Table 3 style bits-per-address table."""

    trace_name: str
    values: Dict[str, float]

    def formatted(self, columns: Sequence[str]) -> str:
        """Fixed-width text rendering of the row."""
        cells = [f"{self.trace_name:<16}"]
        for column in columns:
            cells.append(f"{self.values.get(column, float('nan')):>10.2f}")
        return " ".join(cells)
