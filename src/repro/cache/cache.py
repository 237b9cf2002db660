"""Set-associative cache simulator.

This is the substrate the paper relies on in two places:

* the *cache filter* that turns a full reference stream into a
  cache-filtered address trace (Section 4.2 uses 32 KB, 4-way, 64-byte
  blocks, LRU for both the L1 instruction and L1 data cache), and
* the cache configurations simulated from exact and lossy traces to check
  that miss ratios are preserved (Figure 3).

The simulator models tags only (no data), which is all that is needed to
count hits and misses and to emit the miss address stream.  Replacement
policies: LRU (the paper's policy), FIFO and RANDOM are provided so the
ablation benches can vary the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
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

__all__ = ["CacheConfig", "CacheStats", "SetAssociativeCache", "access_batches"]

_POLICIES = ("lru", "fifo", "random")

#: Slice length (in blocks) of the exact serial loop taken by
#: :meth:`SetAssociativeCache.access_batch` for RANDOM replacement, dirty
#: caches and short batches: big enough that per-slice overhead is
#: negligible, small enough that a huge batch never materialises one giant
#: Python list.
SERIAL_FALLBACK_BLOCKS = 65536

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
    """Geometry and policy of one cache level.

    Attributes:
        num_sets: Number of cache sets (power of two).
        associativity: Ways per set (>= 1).
        block_bytes: Cache block (line) size in bytes (power of two).
        policy: Replacement policy, one of ``"lru"``, ``"fifo"``, ``"random"``.
        name: Optional label used in reports (e.g. ``"L1D"``).
    """

    num_sets: int
    associativity: int
    block_bytes: int = 64
    policy: str = "lru"
    name: str = ""

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(f"num_sets must be a power of two, got {self.num_sets}")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if not _is_power_of_two(self.block_bytes):
            raise ConfigurationError(f"block_bytes must be a power of two, got {self.block_bytes}")
        if self.policy not in _POLICIES:
            raise ConfigurationError(f"unknown replacement policy {self.policy!r}")

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
        policy: str = "lru",
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
            policy=policy,
            name=name,
        )


@dataclass
class CacheStats:
    """Hit/miss counters accumulated by a :class:`SetAssociativeCache`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

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
            writebacks=self.writebacks + other.writebacks,
        )


class SetAssociativeCache:
    """Tag-only set-associative cache with LRU/FIFO/RANDOM replacement.

    The cache operates on *block addresses* internally.  :meth:`access`
    takes byte addresses (like a real cache port) while
    :meth:`access_block` takes block addresses directly, which is what the
    trace-driven simulations in Figure 3 use (the trace already stores block
    addresses).
    """

    def __init__(self, config: CacheConfig, seed: int = 0) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # Replacement state lives in one of two forms, each built lazily
        # from the other and dropped when the other form is mutated:
        #
        # * ``_set_dicts``, the serial oracle's form: one dict per set
        #   mapping block address -> monotonically increasing stamp.  For
        #   LRU the stamp is updated on every touch, for FIFO only on fill,
        #   so the victim (min stamp) implements either policy.
        # * ``_table``, the kernel's form: ``(blocks, stamps, occupancy)``
        #   with ``(num_sets, ways)`` block and stamp matrices, each row
        #   newest stamp first, and the valid entries per row.
        #
        # A streaming filter therefore runs batch after batch on the
        # matrices alone; ``_sets`` materialises the dicts on demand.
        self._set_dicts: Optional[List[dict]] = [dict() for _ in range(config.num_sets)]
        self._table: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Dirty blocks per set (written blocks that will cause a write-back
        # when evicted); parallel to ``_sets`` and always a subset of it.
        # The total count is maintained incrementally so the batch paths
        # can test "any dirty block?" in O(1) instead of scanning all sets.
        self._dirty: List[set] = [set() for _ in range(config.num_sets)]
        self._dirty_block_count = 0
        self._clock = 0
        self._rng = np.random.default_rng(seed)

    # -- access paths ---------------------------------------------------------------
    def access(self, byte_address: int) -> bool:
        """Access a byte address; returns ``True`` on hit, ``False`` on miss."""
        return self.access_block(int(byte_address) >> self._set_shift)

    def access_block(self, block: int) -> bool:
        """Access a block address; returns ``True`` on hit, ``False`` on miss."""
        hit, _ = self.access_block_rw(block, is_write=False)
        return hit

    def access_block_rw(self, block: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access a block, optionally as a write (write-allocate, write-back).

        Returns ``(hit, writeback_block)`` where ``writeback_block`` is the
        address of the dirty block evicted by this access, or ``None`` when
        no write-back happened.  This is what the paper's cache filter needs
        to emit write-back records tagged in the spare address bits.
        """
        block = int(block)
        config = self.config
        index = block & self._set_mask
        cache_set = (self._set_dicts if self._table is None else self._writable_sets())[index]
        dirty_set = self._dirty[index]
        self.stats.accesses += 1
        self._clock += 1
        if block in cache_set:
            self.stats.hits += 1
            if config.policy == "lru":
                cache_set[block] = self._clock
            if is_write and block not in dirty_set:
                dirty_set.add(block)
                self._dirty_block_count += 1
            return True, None
        self.stats.misses += 1
        writeback = None
        if len(cache_set) >= config.associativity:
            victim = self._evict(cache_set)
            if victim in dirty_set:
                dirty_set.discard(victim)
                self._dirty_block_count -= 1
                self.stats.writebacks += 1
                writeback = victim
        cache_set[block] = self._clock
        if is_write:
            dirty_set.add(block)
            self._dirty_block_count += 1
        return False, writeback

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

    # -- batch access ----------------------------------------------------------------
    def access_batch(self, blocks: Iterable[int]) -> np.ndarray:
        """Access many block addresses at once; returns the boolean hit mask.

        Semantically identical to calling :meth:`access_block` on every
        element in order — counters, resident blocks and replacement stamps
        end up exactly the same — but accesses are grouped by cache set, so
        the simulation runs on arrays instead of one Python-level cache
        probe per reference:

        * LRU caches of every geometry run on the set-parallel stack kernel
          (:mod:`repro.core.kernels`), which advances every set's recency
          stack with whole-array operations;
        * FIFO and RANDOM replacement (the paper's filter and sweeps are
          LRU-only, so neither has an array path), caches holding dirty
          blocks (whose evictions must count write-backs) and batches
          shorter than :data:`KERNEL_MIN_BATCH` run the exact serial loop.
        """
        array = _as_block_array(blocks)
        count = int(array.size)
        if count == 0:
            return np.zeros(0, dtype=bool)
        if self.config.policy != "lru" or self._dirty_block_count:
            return self._access_batch_serial(array)
        if count < KERNEL_MIN_BATCH:
            return self._access_batch_serial(array)
        return self._access_batch_kernel(array)

    def _access_batch_serial(self, array: np.ndarray) -> np.ndarray:
        """The serial per-reference loop over a batch: the semantics oracle.

        Converts to Python ints in bounded slices so a huge batch does not
        materialise one giant list.
        """
        count = int(array.size)
        hits = np.empty(count, dtype=bool)
        access_block = self.access_block
        for start in range(0, count, SERIAL_FALLBACK_BLOCKS):
            chunk = array[start : start + SERIAL_FALLBACK_BLOCKS].tolist()
            for offset, block in enumerate(chunk):
                hits[start + offset] = access_block(block)
        return hits

    def _access_batch_kernel(self, array: np.ndarray) -> np.ndarray:
        """Batch access on the set-parallel array kernel (LRU, clean).

        Delegates the simulation to :func:`repro.core.kernels.simulate_batch`,
        seeded from and written back to the cache's block/stamp matrices.
        Bit-identical to the serial loop: hit mask, counters, resident
        blocks and stamps all match exactly.
        """
        from repro.core.kernels import simulate_batch

        count = int(array.size)
        hits = np.empty(count, dtype=bool)
        for start in range(0, count, KERNEL_SLICE_BLOCKS):
            piece = array[start : start + KERNEL_SLICE_BLOCKS]
            blocks, _, occupancy = self._kernel_table()
            result = simulate_batch(
                piece,
                (piece & np.uint64(self._set_mask)).astype(np.int32),
                self._set_mask,
                self.config.associativity,
                blocks,
                occupancy,
            )
            self._commit_kernel_rows(
                result.rows, result.stacks, result.occupancy, result.sources, result.hits, 0
            )
            hits[start : start + int(piece.size)] = result.hits
        return hits

    # -- replacement state ------------------------------------------------------------
    @property
    def _sets(self) -> List[dict]:
        """The per-set ``{block: stamp}`` dicts (materialised on demand)."""
        if self._set_dicts is None:
            self._set_dicts = self._materialise_sets()
        return self._set_dicts

    def _materialise_sets(self) -> List[dict]:
        """Build the per-set dicts from the kernel's block/stamp matrices."""
        blocks, stamps, occupancy = self._table
        return [
            dict(zip(row_blocks[:held], row_stamps[:held]))
            for row_blocks, row_stamps, held in zip(
                blocks.tolist(), stamps.tolist(), occupancy.tolist()
            )
        ]

    def _writable_sets(self) -> List[dict]:
        """The per-set dicts, for a caller about to mutate them."""
        sets = self._sets
        self._table = None
        return sets

    def _kernel_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(blocks, stamps, occupancy)`` matrices, built on demand.

        Stamps are unique clock values, so sorting each set's entries by
        stamp, newest first, recovers the recency order the kernel's
        stacks encode.
        """
        if self._table is None:
            config = self.config
            sets = self._set_dicts
            sizes = np.array([len(cache_set) for cache_set in sets], dtype=np.int64)
            total = int(sizes.sum())
            set_of = np.repeat(np.arange(config.num_sets), sizes)
            keys = np.fromiter(
                (block for cache_set in sets for block in cache_set), np.uint64, total
            )
            values = np.fromiter(
                (stamp for cache_set in sets for stamp in cache_set.values()), np.int64, total
            )
            order = np.lexsort((-values, set_of))
            slot = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            blocks = np.zeros((config.num_sets, config.associativity), dtype=np.uint64)
            stamps = np.zeros((config.num_sets, config.associativity), dtype=np.int64)
            blocks[set_of, slot] = keys[order]
            stamps[set_of, slot] = values[order]
            self._table = (blocks, stamps, sizes)
        return self._table

    def _commit_kernel_rows(self, rows, stacks, occupancy, sources, hits, first: int) -> None:
        """Scatter a kernel result's touched rows back into the matrices.

        ``rows`` are this cache's set indices; ``sources`` number batch
        positions from ``first`` (the lane's offset in a fused batch).
        Carried entries keep their old stamps, and the eviction count is
        the miss count less the occupancy growth.
        """
        growth = 0
        if rows.size:
            blocks, stamps, held = self._table
            carried = np.take_along_axis(stamps[rows], np.maximum(-1 - sources, 0), axis=1)
            stamps[rows] = np.where(sources >= 0, sources + (self._clock + 1 - first), carried)
            blocks[rows] = stacks
            growth = int(occupancy.sum()) - int(held[rows].sum())
            held[rows] = occupancy
            self._set_dicts = None
        count = int(hits.size)
        hit_count = int(np.count_nonzero(hits))
        self.stats.accesses += count
        self.stats.hits += hit_count
        self.stats.misses += count - hit_count
        self.stats.evictions += (count - hit_count) - growth
        self._clock += count

    # -- internals ------------------------------------------------------------------
    def _evict(self, cache_set: dict) -> int:
        if self.config.policy == "random":
            victim = list(cache_set)[int(self._rng.integers(len(cache_set)))]
        else:
            victim = min(cache_set, key=cache_set.get)
        del cache_set[victim]
        self.stats.evictions += 1
        return victim

    # -- introspection ---------------------------------------------------------------
    def resident_blocks(self) -> set:
        """Return the set of block addresses currently cached."""
        resident = set()
        for cache_set in self._sets:
            resident.update(cache_set)
        return resident

    def contains_block(self, block: int) -> bool:
        """Return True when ``block`` is resident (does not update LRU state)."""
        block = int(block)
        return block in self._sets[block & self._set_mask]

    def dirty_blocks(self) -> set:
        """Return the set of block addresses currently dirty."""
        dirty = set()
        for dirty_set in self._dirty:
            dirty.update(dirty_set)
        return dirty

    def flush(self) -> None:
        """Invalidate every block and reset the internal clock (stats kept)."""
        self._set_dicts = [dict() for _ in range(self.config.num_sets)]
        self._table = None
        for dirty_set in self._dirty:
            dirty_set.clear()
        self._dirty_block_count = 0
        self._clock = 0

    def reset(self) -> None:
        """Flush the cache and clear the statistics."""
        self.flush()
        self.stats = CacheStats()


def access_batches(caches, block_batches) -> List[np.ndarray]:
    """Batch-access several *independent* caches in one fused kernel call.

    The set-parallel kernel amortises its per-time-step cost over every
    simulated set, so independent caches of one associativity — the
    filter's L1I and L1D pair — simulate fastest when their sets share one
    row space and march together.  Each cache's counters, stamps, resident
    blocks and hit mask come out exactly as if ``cache.access_batch(blocks)``
    had been called per cache (the fallback this function takes whenever
    the caches are ineligible for fusion: mixed associativities, a non-LRU
    policy, dirty blocks, single-set geometry, or a tiny total batch).

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
            cache.config.policy == "lru"
            and cache.config.associativity == ways
            and cache.config.num_sets >= 2
            and not cache._dirty_block_count
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
    set_mask = max(cache._set_mask for cache in caches)
    # march in bounded joint slices: each cache's replacement state carries
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

    The lanes' block matrices stack into one row space and the touched
    rows split back by row range.
    """
    from repro.core.kernels import simulate_batch

    offsets = np.cumsum([0] + [int(piece.size) for piece in pieces])
    rows = np.concatenate(
        [
            (piece & np.uint64(cache._set_mask)).astype(np.int32) + row_base
            for cache, piece, row_base in zip(caches, pieces, row_bases)
        ]
    )
    row_count = row_bases[-1] + caches[-1].config.num_sets
    stacks = np.empty((row_count, ways), dtype=np.uint64)
    occupancy = np.empty(row_count, dtype=np.int64)
    for cache, row_base in zip(caches, row_bases):
        blocks, _, held = cache._kernel_table()
        stacks[row_base : row_base + cache.config.num_sets] = blocks
        occupancy[row_base : row_base + cache.config.num_sets] = held
    result = simulate_batch(np.concatenate(pieces), rows, set_mask, ways, stacks, occupancy)
    cuts = np.searchsorted(result.rows, row_bases + [row_count]).tolist()
    slice_hits: List[np.ndarray] = []
    for lane, cache in enumerate(caches):
        lo, hi = cuts[lane], cuts[lane + 1]
        lane_hits = result.hits[offsets[lane] : offsets[lane + 1]]
        cache._commit_kernel_rows(
            result.rows[lo:hi] - row_bases[lane],
            result.stacks[lo:hi],
            result.occupancy[lo:hi],
            result.sources[lo:hi],
            lane_hits,
            int(offsets[lane]),
        )
        slice_hits.append(lane_hits)
    return slice_hits
