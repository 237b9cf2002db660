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

#: Geometries up to this many sets seed the kernel by scanning every
#: non-empty set (cheaper than sorting the batch's set indices); larger
#: geometries pay one :func:`numpy.unique` to seed only the touched sets.
#: Shared with the stack-distance simulator's seeding heuristic.
KERNEL_SEED_SCAN_SETS = 4096


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
        # One dict per set mapping block address -> monotonically increasing
        # stamp.  For LRU the stamp is updated on every touch, for FIFO only
        # on fill, so the victim (min stamp) implements either policy.
        self._sets: List[dict] = [dict() for _ in range(config.num_sets)]
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
        cache_set = self._sets[index]
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

        * direct-mapped caches take a fully vectorised NumPy path (a hit is
          an access equal to the previous access of the same set);
        * LRU and FIFO set-associative caches run on the set-parallel
          stack kernel (:mod:`repro.core.kernels`), which advances every
          set's recency stack with whole-array operations;
        * RANDOM replacement (whose RNG draws depend on global access
          order), caches holding dirty blocks (whose evictions must count
          write-backs) and batches shorter than :data:`KERNEL_MIN_BATCH`
          run the exact serial loop.
        """
        array = _as_block_array(blocks)
        count = int(array.size)
        if count == 0:
            return np.zeros(0, dtype=bool)
        if self.config.policy == "random" or self._dirty_block_count:
            return self._access_batch_serial(array)
        if self.config.associativity == 1:
            return self._access_batch_direct(array)
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

    def _access_batch_direct(self, array: np.ndarray) -> np.ndarray:
        """Vectorised batch access for direct-mapped caches.

        With one way per set the resident block is simply the last block
        accessed in that set, so after a stable sort by set index a hit is
        "equal to the previous access of the same set" — no per-access
        Python at all.  Only the per-set boundary work (seeding the first
        access of each touched set with the resident block, and writing the
        final state back) runs in a Python loop over *touched sets*.
        """
        count = int(array.size)
        set_index = (array & np.uint64(self._set_mask)).astype(np.int64)
        order = np.argsort(set_index, kind="stable")
        sorted_sets = set_index[order]
        sorted_blocks = array[order]
        same_set = np.zeros(count, dtype=bool)
        same_set[1:] = sorted_sets[1:] == sorted_sets[:-1]
        hits_sorted = np.zeros(count, dtype=bool)
        hits_sorted[1:] = same_set[1:] & (sorted_blocks[1:] == sorted_blocks[:-1])
        group_starts = np.flatnonzero(~same_set)
        group_bounds = np.append(group_starts, count)
        clock_start = self._clock
        is_lru = self.config.policy == "lru"
        newly_filled = 0
        for group in range(group_starts.size):
            start = int(group_starts[group])
            end = int(group_bounds[group + 1])
            cache_set = self._sets[int(sorted_sets[start])]
            if cache_set:
                (resident,) = cache_set
                hits_sorted[start] = int(sorted_blocks[start]) == resident
            else:
                newly_filled += 1
            final_block = int(sorted_blocks[end - 1])
            if is_lru:
                # LRU stamp = clock at the last touch of the set.
                stamp_position = int(order[end - 1])
            else:
                # FIFO stamp = clock at the last fill (miss) of the set.
                group_misses = np.flatnonzero(~hits_sorted[start:end])
                if group_misses.size == 0:
                    continue  # all hits: resident block and stamp unchanged
                stamp_position = int(order[start + int(group_misses[-1])])
            cache_set.clear()
            cache_set[final_block] = clock_start + stamp_position + 1
        hit_count = int(np.count_nonzero(hits_sorted))
        miss_count = count - hit_count
        self.stats.accesses += count
        self.stats.hits += hit_count
        self.stats.misses += miss_count
        self.stats.evictions += miss_count - newly_filled
        self._clock += count
        hits = np.empty(count, dtype=bool)
        hits[order] = hits_sorted
        return hits

    def _access_batch_kernel(self, array: np.ndarray) -> np.ndarray:
        """Batch access on the set-parallel array kernel (LRU/FIFO, clean).

        Delegates the simulation to :func:`repro.core.kernels.simulate_batch`
        and converts between the cache's per-set stamp dictionaries and the
        kernel's recency-stack state.  Bit-identical to the serial loop:
        hit mask, counters, resident blocks and stamps all match exactly.
        """
        from repro.core.kernels import simulate_batch

        count = int(array.size)
        hits = np.empty(count, dtype=bool)
        for start in range(0, count, KERNEL_SLICE_BLOCKS):
            piece = array[start : start + KERNEL_SLICE_BLOCKS]
            size = int(piece.size)
            set_index = (piece & np.uint64(self._set_mask)).astype(np.int32)
            result = simulate_batch(
                piece,
                set_index,
                self._set_mask,
                self.config.associativity,
                self.config.policy,
                self._kernel_seed_stacks(set_index),
            )
            growth = self._kernel_apply_state(result.final_stacks.items(), self._clock)
            piece_hits = result.hits
            hit_count = int(np.count_nonzero(piece_hits))
            self.stats.accesses += size
            self.stats.hits += hit_count
            self.stats.misses += size - hit_count
            self.stats.evictions += (size - hit_count) - growth
            self._clock += size
            hits[start : start + size] = piece_hits
        return hits

    def _kernel_seed_stacks(self, set_index: np.ndarray) -> dict:
        """Kernel-facing state: blocks of each touched set, MRU/newest first.

        Stamps are unique clock values, so sorting by stamp descending
        recovers the recency (LRU) or fill (FIFO) order the kernel's
        stacks encode.  For small geometries every non-empty set is
        offered (the kernel ignores rows absent from the batch); large
        ones pay one :func:`numpy.unique` to seed only the touched sets.
        """
        if self.config.num_sets <= KERNEL_SEED_SCAN_SETS:
            touched = range(self.config.num_sets)
        else:
            touched = np.unique(set_index).tolist()
        initial = {}
        for index in touched:
            cache_set = self._sets[index]
            if cache_set:
                initial[index] = sorted(cache_set, key=cache_set.get, reverse=True)
        return initial

    def _kernel_apply_state(self, stack_items, clock_start: int) -> int:
        """Write kernel result stacks back into the per-set stamp dicts.

        ``stack_items`` yields ``(set_index, [(block, last_position), ...])``
        with positions relative to this cache's batch (``-1`` = untouched,
        keep the old stamp).  Returns the total occupancy growth, which
        turns the batch's miss count into its eviction count.
        """
        growth = 0
        for index, stack in stack_items:
            cache_set = self._sets[index]
            rebuilt = {}
            for block, last in reversed(stack):
                rebuilt[block] = clock_start + last + 1 if last >= 0 else cache_set[block]
            growth += len(rebuilt) - len(cache_set)
            cache_set.clear()
            cache_set.update(rebuilt)
        return growth

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
        for cache_set in self._sets:
            cache_set.clear()
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
    simulated set, so independent caches — the filter's L1I and L1D pair,
    per-core filter caches — simulate fastest when their sets share one
    row space and march together.  Each cache's counters, stamps, resident
    blocks and hit mask come out exactly as if ``cache.access_batch(blocks)``
    had been called per cache (the fallback this function takes whenever a
    cache is ineligible for the kernel: RANDOM replacement, dirty blocks,
    direct-mapped or single-set geometry, or a tiny total batch).

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
    fusable = (
        len(caches) >= 2
        and total >= KERNEL_MIN_BATCH
        and all(
            cache.config.policy == "lru"
            and cache.config.associativity >= 2
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
    associativities = {cache.config.associativity for cache in caches}
    if len(associativities) == 1:
        ways = caches[0].config.associativity
    else:
        ways = np.concatenate(
            [
                np.full(cache.config.num_sets, cache.config.associativity, dtype=np.int64)
                for cache in caches
            ]
        )
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
    """One fused kernel pass over aligned per-cache batch slices."""
    from repro.core.kernels import simulate_batch

    offsets: List[int] = []
    offset = 0
    for piece in pieces:
        offsets.append(offset)
        offset += int(piece.size)
    set_indices = [
        (piece & np.uint64(cache._set_mask)).astype(np.int32)
        for cache, piece in zip(caches, pieces)
    ]
    rows = np.concatenate(
        [
            set_index + row_base
            for set_index, row_base in zip(set_indices, row_bases)
        ]
    )
    blocks = np.concatenate(pieces)
    initial = {}
    for cache, set_index, row_base in zip(caches, set_indices, row_bases):
        for index, stack in cache._kernel_seed_stacks(set_index).items():
            initial[index + row_base] = stack
    result = simulate_batch(blocks, rows, set_mask, ways, "lru", initial)
    # one pass over the touched rows, routed to their owning lane
    from bisect import bisect_right

    lane_items: List[List] = [[] for _ in caches]
    for rid, stack in result.final_stacks.items():
        lane = bisect_right(row_bases, rid) - 1
        lane_items[lane].append(
            (
                rid - row_bases[lane],
                [
                    (block, last - offsets[lane] if last >= 0 else -1)
                    for block, last in stack
                ],
            )
        )
    slice_hits: List[np.ndarray] = []
    for lane, (cache, piece) in enumerate(zip(caches, pieces)):
        count = int(piece.size)
        lane_hits = result.hits[offsets[lane] : offsets[lane] + count]
        growth = cache._kernel_apply_state(lane_items[lane], cache._clock)
        hit_count = int(np.count_nonzero(lane_hits))
        cache.stats.accesses += count
        cache.stats.hits += hit_count
        cache.stats.misses += count - hit_count
        cache.stats.evictions += (count - hit_count) - growth
        cache._clock += count
        slice_hits.append(lane_hits)
    return slice_hits
