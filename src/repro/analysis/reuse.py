"""Reuse-distance and footprint analysis of address traces.

The paper's whole premise is that a cache-filtered trace still carries the
"macroscopic" memory behaviour of the application: how large the footprint
is, how quickly it grows, and how reuse is distributed.  This module gives
the library a quantitative handle on those properties.  It is used by the
extended fidelity analysis (``examples/full_evaluation.py``) to verify that
lossy-compressed traces preserve not only miss ratios (Figure 3) but also
the underlying reuse-distance distribution, and it is generally useful when
characterising workloads produced by :mod:`repro.traces`.

Definitions
-----------

* **Reuse distance** of a reference: the number of *distinct* blocks
  referenced since the previous reference to the same block (infinite for
  the first reference).  Under fully-associative LRU, a reference hits in a
  cache of C blocks iff its reuse distance is < C, so the cumulative reuse
  distance distribution *is* the fully-associative miss-ratio curve.
* **Footprint curve**: number of distinct blocks seen in the first k
  references, as a function of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.trace import as_address_array, distinct_count

__all__ = [
    "ReuseDistanceHistogram",
    "reuse_distance_histogram",
    "footprint_curve",
    "working_set_sizes",
]


class _FenwickTree:
    """Binary indexed tree counting how many tracked positions are set."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at positions 0..index-1."""
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total


@dataclass(frozen=True)
class ReuseDistanceHistogram:
    """Histogram of reuse distances, bucketed by powers of two.

    Attributes:
        bucket_counts: ``bucket_counts[i]`` counts references with reuse
            distance in ``[2**(i-1), 2**i)`` (bucket 0 is distance 0).
        cold_references: References with no previous use (infinite distance).
        total_references: Total number of references analysed.
    """

    bucket_counts: Dict[int, int]
    cold_references: int
    total_references: int

    def miss_ratio(self, cache_blocks: int) -> float:
        """Fully-associative LRU miss ratio for a cache of ``cache_blocks``.

        A reference misses iff its reuse distance is >= the cache size (or
        it is a cold reference).
        """
        if self.total_references == 0:
            return 0.0
        misses = self.cold_references
        for bucket, count in self.bucket_counts.items():
            lower = 0 if bucket == 0 else 1 << (bucket - 1)
            upper = 1 if bucket == 0 else (1 << bucket) - 1
            if lower >= cache_blocks:
                misses += count
            elif upper >= cache_blocks:
                # The bucket straddles the cache size; apportion uniformly.
                span = upper - lower + 1
                misses += count * (upper - cache_blocks + 1) / span
        return misses / self.total_references

    def distribution(self) -> Dict[str, float]:
        """Bucket fractions keyed by a human-readable range label."""
        if self.total_references == 0:
            return {}
        result: Dict[str, float] = {}
        for bucket in sorted(self.bucket_counts):
            lower = 0 if bucket == 0 else 1 << (bucket - 1)
            upper = 0 if bucket == 0 else (1 << bucket) - 1
            label = "0" if bucket == 0 else f"{lower}-{upper}"
            result[label] = self.bucket_counts[bucket] / self.total_references
        result["cold"] = self.cold_references / self.total_references
        return result

    def l1_distance(self, other: "ReuseDistanceHistogram") -> float:
        """L1 distance between two bucket distributions (0 = identical)."""
        mine = self.distribution()
        theirs = other.distribution()
        keys = set(mine) | set(theirs)
        return sum(abs(mine.get(key, 0.0) - theirs.get(key, 0.0)) for key in keys)


def reuse_distance_histogram(blocks, max_tracked: Optional[int] = None) -> ReuseDistanceHistogram:
    """Compute the LRU reuse-distance histogram of a block-address trace.

    Uses the classic Fenwick-tree algorithm (O(N log N)): each position of
    the trace is marked while its block remains the most recent reference to
    that block; the reuse distance of a new reference is the number of
    marked positions after the block's previous reference.

    Args:
        blocks: Block addresses in reference order.
        max_tracked: Optional cap on the number of references analysed
            (``None`` analyses the whole trace).
    """
    values = as_address_array(blocks)
    if max_tracked is not None:
        if max_tracked < 0:
            raise ConfigurationError("max_tracked must be non-negative")
        values = values[:max_tracked]
    count = int(values.size)
    tree = _FenwickTree(count)
    last_position: Dict[int, int] = {}
    bucket_counts: Dict[int, int] = {}
    cold = 0
    for position, block in enumerate(values.tolist()):
        previous = last_position.get(block)
        if previous is None:
            cold += 1
        else:
            distance = tree.prefix_sum(position) - tree.prefix_sum(previous + 1)
            bucket = 0 if distance == 0 else int(math.floor(math.log2(distance))) + 1
            bucket_counts[bucket] = bucket_counts.get(bucket, 0) + 1
            tree.add(previous, -1)
        tree.add(position, 1)
        last_position[block] = position
    return ReuseDistanceHistogram(
        bucket_counts=bucket_counts, cold_references=cold, total_references=count
    )


def footprint_curve(blocks, points: int = 32) -> List[tuple]:
    """Distinct-block footprint as a function of trace prefix length.

    Returns a list of ``(prefix_length, distinct_blocks)`` pairs at
    ``points`` evenly spaced prefix lengths (always including the full
    trace), useful to see how quickly a workload's working set grows.
    """
    values = as_address_array(blocks)
    count = int(values.size)
    if count == 0:
        return [(0, 0)]
    if points < 1:
        raise ConfigurationError("points must be >= 1")
    checkpoints = sorted(set(np.linspace(1, count, min(points, count), dtype=int).tolist()))
    seen = set()
    curve = []
    next_checkpoint = 0
    for position, block in enumerate(values.tolist(), start=1):
        seen.add(block)
        if position == checkpoints[next_checkpoint]:
            curve.append((position, len(seen)))
            next_checkpoint += 1
            if next_checkpoint >= len(checkpoints):
                break
    return curve


def working_set_sizes(blocks, window: int) -> List[int]:
    """Distinct blocks per consecutive window of ``window`` references.

    This is Denning's working-set measure sampled at non-overlapping
    windows; phase changes show up as jumps in the returned series.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    values = as_address_array(blocks)
    return [distinct_count(values[start : start + window]) for start in range(0, int(values.size), window)]
