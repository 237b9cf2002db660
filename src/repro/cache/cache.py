"""Set-associative LRU cache simulator.

This is the substrate the paper relies on in two places:

* the *cache filter* that turns a full reference stream into a
  cache-filtered address trace (Section 4.2 uses 32 KB, 4-way, 64-byte
  blocks, LRU for both the L1 instruction and L1 data cache), and
* the cache configurations simulated from exact and lossy traces to check
  that miss ratios are preserved (Figure 3).

The simulator models tags only (no data, no writes), which is all that is
needed to count hits and misses and to emit the miss address stream.
Replacement is LRU, the paper's only policy.  :class:`LruStacks` is the
per-set recency state this cache and the stack-distance simulator
(:mod:`repro.cache.stackdist`) share: an ``A``-way cache keeps its stacks
``A`` deep, and a reference hits iff its block is found in them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


def _as_block_array(blocks) -> np.ndarray:
    """Convert a block-address iterable to a ``uint64`` array.

    Deferred import: ``repro.traces`` imports this module (via the cache
    filter), so importing ``as_address_array`` at module level would be
    circular.
    """
    from repro.traces.trace import as_address_array

    return as_address_array(blocks)

__all__ = ["CacheConfig", "CacheStats", "LruStacks", "SetAssociativeCache", "access_batches"]

#: Batches shorter than this skip the array kernel: below a few hundred
#: references the kernel's sort/pack setup costs more than the serial
#: per-reference loop it replaces.
KERNEL_MIN_BATCH = 192

#: Kernel batches are simulated in slices of this many blocks (state
#: carries across slices, so results are bit-identical to one shot); the
#: kernel's scratch matrices then stay a few megabytes no matter how large
#: the caller's batch is.
KERNEL_SLICE_BLOCKS = 65536


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one LRU cache level.

    Attributes:
        num_sets: Number of cache sets (power of two).
        associativity: Ways per set (>= 1).
        block_bytes: Cache block (line) size in bytes (power of two).
        name: Optional label used in reports (e.g. ``"L1D"``).
    """

    num_sets: int
    associativity: int
    block_bytes: int = 64
    name: str = ""

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if not _is_power_of_two(self.block_bytes):
            raise ConfigurationError(f"block_bytes must be a power of two, got {self.block_bytes}")

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of the cache in bytes."""
        return self.num_sets * self.associativity * self.block_bytes

    @property
    def capacity_blocks(self) -> int:
        """Total number of blocks (tags) the cache can hold."""
        return self.num_sets * self.associativity

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        associativity: int,
        block_bytes: int = 64,
        name: str = "",
    ) -> "CacheConfig":
        """Build a config from a capacity instead of a set count.

        This matches how the paper describes its filter caches ("capacity of
        32 Kbytes and ... 4-way set-associative").

        Example:
            >>> config = CacheConfig.from_capacity(32 * 1024, associativity=4)
            >>> config.num_sets, config.capacity_bytes
            (128, 32768)
        """
        blocks = capacity_bytes // block_bytes
        if blocks % associativity:
            raise ConfigurationError(
                f"capacity {capacity_bytes} is not divisible into {associativity}-way sets"
            )
        return cls(
            num_sets=blocks // associativity,
            associativity=associativity,
            block_bytes=block_bytes,
            name=name,
        )


@dataclass
class CacheStats:
    """Hit/miss counters accumulated by a :class:`SetAssociativeCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_ratio(self) -> float:
        """Fraction of accesses that missed (0.0 when nothing was accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the sum of two counters (used when merging I and D stats)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class LruStacks:
    """Per-set LRU recency stacks, most recently used first, ``depth`` deep.

    The state lives in one of two forms, each built lazily from the other
    and dropped when the other is mutated:

    * :attr:`lists`, the serial oracle's form: one Python list per set;
    * :meth:`table`, the kernel's form: a ``(num_sets, depth)`` ``uint64``
      block matrix, each row most recently used first, plus the valid
      entries per row.

    A streaming filter therefore runs batch after batch on the matrices
    alone.

    Example:
        >>> stacks = LruStacks(num_sets=2, depth=2)
        >>> [stacks.touch(block) for block in (4, 6, 4, 8)]
        [(0, False), (0, False), (2, False), (0, True)]
        >>> stacks.lists
        [[8, 4], []]
    """

    def __init__(self, num_sets: int, depth: int) -> None:
        self.num_sets = num_sets
        self.depth = depth
        self.set_mask = num_sets - 1
        self.clear()

    def clear(self) -> None:
        """Empty every set."""
        self._lists: Optional[List[List[int]]] = [[] for _ in range(self.num_sets)]
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def lists(self) -> List[List[int]]:
        """The per-set MRU-first block lists (materialised on demand)."""
        if self._lists is None:
            stacks, occupancy = self._table
            self._lists = [row[:held] for row, held in zip(stacks.tolist(), occupancy.tolist())]
        return self._lists

    def table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(stacks, occupancy)`` matrices (built on demand)."""
        if self._table is None:
            lists = self._lists
            occupancy = np.fromiter(map(len, lists), np.int64, self.num_sets)
            total = int(occupancy.sum())
            stacks = np.zeros((self.num_sets, self.depth), dtype=np.uint64)
            starts = np.cumsum(occupancy) - occupancy
            stacks[
                np.repeat(np.arange(self.num_sets), occupancy),
                np.arange(total) - np.repeat(starts, occupancy),
            ] = np.fromiter(chain.from_iterable(lists), np.uint64, total)
            self._table = (stacks, occupancy)
        return self._table

    def touch(self, block: int) -> Tuple[int, bool]:
        """Reference one block; returns ``(depth, evicted)``.

        ``depth`` is the block's 1-based stack position before the
        reference, ``0`` when it was not in the stack; ``evicted`` is
        ``True`` when the reference pushed a block out of a full stack.
        """
        stack = self.lists[block & self.set_mask]
        self._table = None
        try:
            position = stack.index(block)
        except ValueError:
            stack.insert(0, block)
            if len(stack) > self.depth:
                stack.pop()
                return 0, True
            return 0, False
        del stack[position]
        stack.insert(0, block)
        return position + 1, False

    def access(self, blocks: np.ndarray, want_depths: bool = False) -> Tuple[np.ndarray, int]:
        """Reference every block of a ``uint64`` array, in order.

        Returns the boolean hit mask (with ``want_depths``, every
        reference's :meth:`touch` depth instead) and the eviction count.
        Batches shorter than :data:`KERNEL_MIN_BATCH` run the serial
        :meth:`touch` loop, the rest the set-parallel stack kernel
        (:mod:`repro.core.kernels`) in :data:`KERNEL_SLICE_BLOCKS` slices;
        both leave exactly the same stacks.
        """
        count = int(blocks.size)
        if count < KERNEL_MIN_BATCH:
            depths = np.zeros(count, dtype=np.int64)
            evicted = 0
            for position, block in enumerate(blocks.tolist()):
                depths[position], pushed = self.touch(block)
                evicted += pushed
            return (depths if want_depths else depths > 0), evicted
        from repro.core.kernels import simulate_batch

        out = np.empty(count, dtype=np.int64 if want_depths else bool)
        evicted = 0
        for start in range(0, count, KERNEL_SLICE_BLOCKS):
            piece = blocks[start : start + KERNEL_SLICE_BLOCKS]
            stacks, occupancy = self.table()
            result = simulate_batch(
                piece,
                (piece & np.uint64(self.set_mask)).astype(np.int32),
                self.set_mask,
                self.depth,
                stacks,
                occupancy,
                want_depths=want_depths,
            )
            evicted += self.commit(result.rows, result.stacks, result.occupancy, result.hits)
            out[start : start + int(piece.size)] = result.depths if want_depths else result.hits
        return out, evicted

    def commit(self, rows, stacks, occupancy, hits) -> int:
        """Scatter a kernel result's touched rows into :meth:`table`.

        ``hits`` is the batch's hit mask; returns the eviction count,
        the misses less the occupancy growth.
        """
        misses = int(hits.size) - int(np.count_nonzero(hits))
        if not rows.size:
            return misses
        table, held = self._table
        growth = int(occupancy.sum()) - int(held[rows].sum())
        table[rows] = stacks
        held[rows] = occupancy
        self._lists = None
        return misses - growth


class SetAssociativeCache:
    """Tag-only set-associative LRU cache.

    The cache operates on *block addresses* internally.  :meth:`access`
    takes byte addresses (like a real cache port) while
    :meth:`access_block` takes block addresses directly, which is what the
    trace-driven simulations in Figure 3 use (the trace already stores block
    addresses).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._block_shift = config.block_bytes.bit_length() - 1
        self._lru = LruStacks(config.num_sets, config.associativity)

    # -- access paths ---------------------------------------------------------------
    def access(self, byte_address: int) -> bool:
        """Access a byte address; returns ``True`` on hit, ``False`` on miss."""
        return self.access_block(int(byte_address) >> self._block_shift)

    def access_block(self, block: int) -> bool:
        """Access a block address; returns ``True`` on hit, ``False`` on miss."""
        depth, evicted = self._lru.touch(int(block))
        stats = self.stats
        stats.accesses += 1
        if depth:
            stats.hits += 1
            return True
        stats.misses += 1
        stats.evictions += evicted
        return False

    def access_trace(self, blocks: Iterable[int]) -> CacheStats:
        """Access every block address in ``blocks`` and return the stats."""
        self.access_batch(blocks)
        return self.stats

    def miss_stream(self, blocks: Iterable[int]) -> np.ndarray:
        """Return the block addresses that miss, in access order.

        This is the "cache filter" operation: the output is exactly the
        cache-filtered trace the paper's compressor consumes.
        """
        array = _as_block_array(blocks)
        hits = self.access_batch(array)
        return array[~hits]

    def access_batch(self, blocks: Iterable[int]) -> np.ndarray:
        """Access many block addresses at once; returns the boolean hit mask.

        Semantically identical to calling :meth:`access_block` on every
        element in order — counters, resident blocks and recency order end
        up exactly the same — but batches of :data:`KERNEL_MIN_BATCH`
        references or more run on the set-parallel stack kernel
        (:mod:`repro.core.kernels`), which advances every set's recency
        stack with whole-array operations.
        """
        hits, evicted = self._lru.access(_as_block_array(blocks))
        self._count(hits, evicted)
        return hits

    def _count(self, hits: np.ndarray, evicted: int) -> None:
        """Add one batch's hit mask and eviction count to :attr:`stats`."""
        count = int(hits.size)
        hit_count = int(np.count_nonzero(hits))
        self.stats.accesses += count
        self.stats.hits += hit_count
        self.stats.misses += count - hit_count
        self.stats.evictions += evicted

    # -- introspection ---------------------------------------------------------------
    def resident_blocks(self) -> set:
        """Return the set of block addresses currently cached."""
        return set(chain.from_iterable(self._lru.lists))

    def contains_block(self, block: int) -> bool:
        """Return True when ``block`` is resident (does not update LRU state)."""
        block = int(block)
        return block in self._lru.lists[block & self._lru.set_mask]

    def flush(self) -> None:
        """Invalidate every block (stats kept)."""
        self._lru.clear()

    def reset(self) -> None:
        """Flush the cache and clear the statistics."""
        self.flush()
        self.stats = CacheStats()


def access_batches(caches, block_batches) -> List[np.ndarray]:
    """Batch-access several *independent* caches in one fused kernel call.

    The set-parallel kernel amortises its per-time-step cost over every
    simulated set, so independent caches of one associativity — the
    filter's L1I and L1D pair — simulate fastest when their sets share one
    row space and march together.  Each cache's counters, recency stacks
    and hit mask come out exactly as if ``cache.access_batch(blocks)`` had
    been called per cache (the fallback this function takes whenever the
    caches cannot fuse: mixed associativities, single-set geometry, or a
    tiny total batch).

    Args:
        caches: The :class:`SetAssociativeCache` instances to access.
        block_batches: One block-address iterable per cache, in the same
            order.

    Returns:
        One boolean hit mask per cache, aligned with its input order.

    Example:
        >>> config = CacheConfig(num_sets=4, associativity=2)
        >>> pair = [SetAssociativeCache(config), SetAssociativeCache(config)]
        >>> import numpy as np
        >>> masks = access_batches(pair, [np.array([1, 1], dtype=np.uint64),
        ...                               np.array([2], dtype=np.uint64)])
        >>> [mask.tolist() for mask in masks]
        [[False, True], [False]]
    """
    caches = list(caches)
    arrays = [_as_block_array(batch) for batch in block_batches]
    if len(caches) != len(arrays):
        raise ConfigurationError(
            f"got {len(caches)} caches but {len(arrays)} block batches"
        )
    total = sum(int(array.size) for array in arrays)
    ways = caches[0].config.associativity if caches else 0
    fusable = (
        len(caches) >= 2
        and total >= KERNEL_MIN_BATCH
        and all(
            cache.config.associativity == ways and cache.config.num_sets >= 2
            for cache in caches
        )
    )
    if not fusable:
        return [cache.access_batch(array) for cache, array in zip(caches, arrays)]
    row_bases: List[int] = []
    base = 0
    for cache in caches:
        row_bases.append(base)
        base += cache.config.num_sets
    set_mask = max(cache._lru.set_mask for cache in caches)
    # march in bounded joint slices: each cache's recency stacks carry
    # from one slice to the next, so the result is identical to one shot
    # while the kernel's scratch matrices stay slice-sized
    masks = [np.empty(int(array.size), dtype=bool) for array in arrays]
    for start in range(0, max(int(array.size) for array in arrays), KERNEL_SLICE_BLOCKS):
        pieces = [array[start : start + KERNEL_SLICE_BLOCKS] for array in arrays]
        slice_hits = _fused_kernel_slice(caches, pieces, row_bases, ways, set_mask)
        for mask, piece_hits in zip(masks, slice_hits):
            mask[start : start + piece_hits.size] = piece_hits
    return masks


def _fused_kernel_slice(caches, pieces, row_bases, ways, set_mask) -> List[np.ndarray]:
    """One fused kernel pass over aligned per-cache batch slices.

    The lanes' stack matrices stack into one row space and the touched
    rows split back by row range.
    """
    from repro.core.kernels import simulate_batch

    offsets = np.cumsum([0] + [int(piece.size) for piece in pieces])
    rows = np.concatenate(
        [
            (piece & np.uint64(cache._lru.set_mask)).astype(np.int32) + row_base
            for cache, piece, row_base in zip(caches, pieces, row_bases)
        ]
    )
    row_count = row_bases[-1] + caches[-1].config.num_sets
    stacks = np.empty((row_count, ways), dtype=np.uint64)
    occupancy = np.empty(row_count, dtype=np.int64)
    for cache, row_base in zip(caches, row_bases):
        lane_stacks, held = cache._lru.table()
        stacks[row_base : row_base + cache.config.num_sets] = lane_stacks
        occupancy[row_base : row_base + cache.config.num_sets] = held
    result = simulate_batch(np.concatenate(pieces), rows, set_mask, ways, stacks, occupancy)
    cuts = np.searchsorted(result.rows, row_bases + [row_count]).tolist()
    slice_hits: List[np.ndarray] = []
    for lane, cache in enumerate(caches):
        lo, hi = cuts[lane], cuts[lane + 1]
        lane_hits = result.hits[offsets[lane] : offsets[lane + 1]]
        evicted = cache._lru.commit(
            result.rows[lo:hi] - row_bases[lane],
            result.stacks[lo:hi],
            result.occupancy[lo:hi],
            lane_hits,
        )
        cache._count(lane_hits, evicted)
        slice_hits.append(lane_hits)
    return slice_hits
