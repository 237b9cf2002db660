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

__all__ = ["CacheConfig", "CacheStats", "LruStacks", "SetAssociativeCache", "access_lanes"]

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
        growth = 0
        for start in range(0, count, KERNEL_SLICE_BLOCKS):
            piece = blocks[start : start + KERNEL_SLICE_BLOCKS]
            stacks, occupancy = self.table()
            result = simulate_batch(
                piece,
                piece & np.uint64(self.set_mask),
                self.set_mask,
                self.depth,
                stacks,
                occupancy,
                want_depths=want_depths,
            )
            growth += self.commit(result.rows, result.stacks, result.occupancy)
            out[start : start + int(piece.size)] = result.depths if want_depths else result.hits
        # a depth is nonzero exactly on a hit; evictions are misses less growth
        return out, count - int(np.count_nonzero(out)) - growth

    def commit(self, rows, stacks, occupancy) -> int:
        """Scatter a kernel result's touched rows into :meth:`table`.

        Returns the occupancy growth: a batch's evictions are its misses
        less that growth.
        """
        if not rows.size:
            return 0
        table, held = self._table
        growth = int(occupancy.sum()) - int(held[rows].sum())
        table[rows] = stacks
        held[rows] = occupancy
        self._lists = None
        return growth


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
        self._count(int(hits.size), int(np.count_nonzero(hits)), evicted)
        return hits

    def _count(self, count: int, hit_count: int, evicted: int) -> None:
        """Add one batch's access, hit and eviction counts to :attr:`stats`."""
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


def access_lanes(caches, blocks, lanes) -> np.ndarray:
    """Access several *independent* caches through one interleaved stream.

    Reference ``i`` goes to ``caches[lanes[i]]`` (boolean lanes read as
    0/1); returns the hit mask aligned with ``blocks``.  The kernel
    amortises its per-step cost over every set, so caches of one
    associativity (the filter's L1I/L1D pair) march as one row space, a
    row being its lane's row base plus its set index, in
    :data:`KERNEL_SLICE_BLOCKS` slices of the unsplit stream.  Counters,
    stacks and hits come out exactly as if each cache had run
    ``access_batch`` on its own references, which is the fallback for
    mixed associativities, a single-set cache or a short batch.

    Example:
        >>> config = CacheConfig(num_sets=4, associativity=2)
        >>> pair = [SetAssociativeCache(config), SetAssociativeCache(config)]
        >>> blocks = np.array([1, 2, 1, 2], dtype=np.uint64)
        >>> access_lanes(pair, blocks, [0, 1, 0, 0]).tolist()
        [False, False, True, False]
    """
    caches = list(caches)
    blocks = _as_block_array(blocks)
    lanes = np.asarray(lanes)
    if lanes.shape != blocks.shape or not np.all((lanes >= 0) & (lanes < len(caches))):
        raise ConfigurationError(f"lanes must give one cache index below {len(caches)} per block")
    ways = caches[0].config.associativity if caches else 0
    if len(caches) < 2 or blocks.size < KERNEL_MIN_BATCH or any(
        cache.config.associativity != ways or cache.config.num_sets < 2 for cache in caches
    ):
        hits = np.empty(blocks.size, dtype=bool)
        for lane, cache in enumerate(caches):
            positions = np.flatnonzero(lanes == lane)
            hits[positions] = cache.access_batch(blocks[positions])
        return hits
    from repro.core.kernels import row_dtype, simulate_batch

    # every lane gets ``stride`` rows: row = lane * stride + (block & lane's set mask)
    stride = max(cache.config.num_sets for cache in caches)
    row_type = row_dtype(len(caches) * stride)
    masks = np.array([cache._lru.set_mask for cache in caches], dtype=np.uint64)
    mask = masks[0] if (masks == masks[0]).all() else masks.take(lanes)
    rows = (blocks & mask).astype(row_type) + lanes.astype(row_type) * row_type(stride)
    hits = np.empty(blocks.size, dtype=bool)
    growth = [0] * len(caches)
    for start in range(0, blocks.size, KERNEL_SLICE_BLOCKS):
        stop = start + KERNEL_SLICE_BLOCKS
        stacks = np.zeros((len(caches) * stride, ways), dtype=np.uint64)
        occupancy = np.zeros(len(caches) * stride, dtype=np.int64)
        for lane, cache in enumerate(caches):
            lane_rows = slice(lane * stride, lane * stride + cache.config.num_sets)
            stacks[lane_rows], occupancy[lane_rows] = cache._lru.table()
        result = simulate_batch(
            blocks[start:stop], rows[start:stop], int(masks.max()), ways, stacks, occupancy
        )
        hits[start:stop] = result.hits
        # the touched rows come back ascending, so each lane's are one run
        cuts = np.searchsorted(result.rows, np.arange(len(caches) + 1) * stride).tolist()
        for lane, cache in enumerate(caches):
            run = slice(cuts[lane], cuts[lane + 1])
            growth[lane] += cache._lru.commit(
                result.rows[run] - lane * stride, result.stacks[run], result.occupancy[run]
            )
    for lane, cache in enumerate(caches):
        mine = lanes == lane
        count, hit_count = int(np.count_nonzero(mine)), int(np.count_nonzero(hits & mine))
        cache._count(count, hit_count, count - hit_count - growth[lane])
    return hits

