"""Single-pass multi-associativity LRU simulation (Mattson stack distances).

The paper evaluates lossy-trace fidelity by simulating "a set-associative
cache, varying the number of cache sets and the associativity" with the
Cheetah simulator (Figure 3).  Cheetah's key trick, reproduced here, is
Mattson's inclusion property: for LRU replacement, a reference that hits in
an A-way set-associative cache also hits in every cache with the same set
count and larger associativity.  Therefore one pass that records, for every
reference, the per-set LRU *stack distance* yields the miss ratio of **all**
associativities at once.

:class:`LruStackSimulator` is exact for distances up to a configurable
``max_associativity`` (32 in the paper's sweep) and simply reports
"deeper than the maximum" beyond that, which is all Figure 3 needs.
:meth:`LruStackSimulator.access_trace` runs whole arrays through the
set-parallel stack kernel (:mod:`repro.core.kernels`) — one pass records
every reference's capped stack distance, so the entire
miss-ratio-vs-associativity curve costs a single array sweep instead of
one Python ``list.index`` per reference; :meth:`~LruStackSimulator.access_block`
remains the per-reference serial oracle and both produce identical
counters and stack state.  The per-set stacks are the same
:class:`~repro.cache.cache.LruStacks` an LRU cache keeps, only deeper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.cache.cache import LruStacks
from repro.errors import ConfigurationError

__all__ = ["MissRatioCurve", "LruStackSimulator", "simulate_miss_curve"]


@dataclass(frozen=True)
class MissRatioCurve:
    """Miss ratio as a function of associativity for a fixed set count.

    Attributes:
        num_sets: Number of cache sets the curve was measured for.
        accesses: Total number of references simulated.
        miss_counts: ``miss_counts[a]`` is the number of misses in an
            ``a``-way cache (keys are 1..max_associativity).
    """

    num_sets: int
    accesses: int
    miss_counts: Dict[int, int]

    def miss_ratio(self, associativity: int) -> float:
        """Miss ratio of the ``associativity``-way cache with ``num_sets`` sets."""
        if associativity not in self.miss_counts:
            raise ConfigurationError(
                f"associativity {associativity} was not simulated "
                f"(available: 1..{max(self.miss_counts)})"
            )
        if self.accesses == 0:
            return 0.0
        return self.miss_counts[associativity] / self.accesses

    def as_series(self) -> List[float]:
        """Return miss ratios ordered by associativity (1, 2, ..., max)."""
        return [self.miss_ratio(a) for a in sorted(self.miss_counts)]

    @property
    def associativities(self) -> List[int]:
        """Sorted list of simulated associativities."""
        return sorted(self.miss_counts)


class LruStackSimulator:
    """One-pass LRU simulator producing a full miss-ratio-vs-associativity curve.

    Args:
        num_sets: Number of cache sets (power of two).
        max_associativity: Largest associativity to report (the per-set LRU
            stack is truncated to this depth).
    """

    def __init__(self, num_sets: int, max_associativity: int = 32) -> None:
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ConfigurationError(f"num_sets must be a power of two, got {num_sets}")
        if max_associativity < 1:
            raise ConfigurationError("max_associativity must be >= 1")
        self.num_sets = num_sets
        self.max_associativity = max_associativity
        self._lru = LruStacks(num_sets, max_associativity)
        self._accesses = 0
        # distance_hits[d] counts references found at stack depth d (1-based);
        # references not found within max_associativity are "deep misses".
        self._distance_hits = np.zeros(max_associativity + 1, dtype=np.int64)
        self._deep_misses = 0

    def access_block(self, block: int) -> int:
        """Record one reference; returns its LRU stack depth (0 = not found).

        Depth ``d >= 1`` means the block was the ``d``-th most recently used
        block of its set, so the reference hits in every cache of
        associativity >= ``d``.  Depth 0 means the block was not within the
        tracked depth (miss at every simulated associativity).
        """
        depth, _ = self._lru.touch(int(block))
        self._accesses += 1
        if depth:
            self._distance_hits[depth] += 1
        else:
            self._deep_misses += 1
        return depth

    def access_trace(self, blocks: Iterable[int]) -> None:
        """Feed every block address of ``blocks`` through the simulator.

        Arrays and sequences run on the set-parallel stack kernel (exact
        capped distances for the whole batch in one array sweep); lazy
        iterables are consumed in bounded slices so peak memory stays
        chunk-sized.  Counters and per-set stacks end up bit-identical to
        calling :meth:`access_block` on every element in order.
        """
        if isinstance(blocks, np.ndarray) or hasattr(blocks, "__len__"):
            self._access_array(blocks)
            return
        from itertools import islice

        from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES

        iterator = iter(blocks)
        while True:
            piece = list(islice(iterator, DEFAULT_CHUNK_ADDRESSES))
            if not piece:
                return
            self._access_array(piece)

    def _access_array(self, blocks) -> None:
        """Simulate one materialised batch (state carries across)."""
        from repro.traces.trace import as_address_array

        depths, _ = self._lru.access(as_address_array(blocks), want_depths=True)
        counts = np.bincount(depths, minlength=self.max_associativity + 1)
        self._deep_misses += int(counts[0])
        self._distance_hits[1:] += counts[1:]
        self._accesses += int(depths.size)

    def curve(self) -> MissRatioCurve:
        """Return the miss-ratio curve accumulated so far."""
        miss_counts: Dict[int, int] = {}
        # A reference with depth d hits for associativity >= d, so the miss
        # count at associativity A is (#references with depth > A) + deep.
        hits_cumulative = np.cumsum(self._distance_hits)
        total_tracked = int(self._distance_hits.sum())
        for associativity in range(1, self.max_associativity + 1):
            hits = int(hits_cumulative[associativity])
            misses = (total_tracked - hits) + self._deep_misses
            miss_counts[associativity] = misses
        return MissRatioCurve(
            num_sets=self.num_sets, accesses=self._accesses, miss_counts=miss_counts
        )


def simulate_miss_curve(
    blocks: Sequence[int], num_sets: int, max_associativity: int = 32
) -> MissRatioCurve:
    """Convenience wrapper: simulate ``blocks`` and return the miss curve."""
    simulator = LruStackSimulator(num_sets, max_associativity=max_associativity)
    simulator.access_trace(blocks)
    return simulator.curve()
