"""Multi-level cache hierarchy used as a trace filter.

The paper filters the reference stream with "one or more cache levels"
(Section 2).  :class:`CacheHierarchy` chains :class:`SetAssociativeCache`
levels: a reference is presented to level 1; on a miss it propagates to
level 2, and so on.  The *filtered trace* is the stream of block addresses
that miss in the last level.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.cache.cache import CacheConfig, CacheStats, SetAssociativeCache
from repro.errors import ConfigurationError

__all__ = ["CacheHierarchy", "miss_streams"]


def _slices_of(blocks: Iterable[int], size: Optional[int] = None) -> Iterator[np.ndarray]:
    """Regroup a lazy block iterable into bounded uint64 slices."""
    from itertools import islice

    from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES, as_address_array

    size = DEFAULT_CHUNK_ADDRESSES if size is None else size
    iterator = iter(blocks)
    while True:
        piece = list(islice(iterator, size))
        if not piece:
            return
        yield as_address_array(piece)


class CacheHierarchy:
    """An inclusive-lookup chain of cache levels acting as a miss filter.

    The model is deliberately simple (no write-back traffic, no inclusion
    enforcement): each level is an independent tag store, and a reference is
    inserted in every level it misses in.  That is exactly the "filter"
    semantics of the paper, which cares only about which addresses escape
    the cache levels, not about coherence traffic.
    """

    def __init__(self, configs: Sequence[CacheConfig]) -> None:
        if not configs:
            raise ConfigurationError("a cache hierarchy needs at least one level")
        block_sizes = {config.block_bytes for config in configs}
        if len(block_sizes) != 1:
            raise ConfigurationError("all hierarchy levels must share the block size")
        self.levels: List[SetAssociativeCache] = [SetAssociativeCache(c) for c in configs]
        self.block_bytes = configs[0].block_bytes
        self._block_shift = self.block_bytes.bit_length() - 1

    def __len__(self) -> int:
        return len(self.levels)

    def access(self, byte_address: int) -> bool:
        """Access a byte address; returns True when the first level hits."""
        return self.access_block(int(byte_address) >> self._block_shift)

    def access_block(self, block: int) -> bool:
        """Access a block address through the hierarchy.

        Returns ``True`` if any level hits; the miss is only counted as a
        *filtered miss* when every level misses.
        """
        hit = False
        for level in self.levels:
            if level.access_block(block):
                hit = True
                break
        return hit

    def access_batch(self, blocks) -> np.ndarray:
        """Access many block addresses at once; returns the boolean hit mask.

        Semantically identical to calling :meth:`access_block` on every
        element in order: level 1 sees the whole batch, and each further
        level sees exactly the subsequence that missed every level before
        it (the serial loop's early-exit behaviour), simulated with the
        vectorised per-level
        :meth:`~repro.cache.cache.SetAssociativeCache.access_batch`.
        """
        from repro.traces.trace import as_address_array

        array = as_address_array(blocks)
        count = int(array.size)
        hits = np.zeros(count, dtype=bool)
        pending = array
        pending_positions = np.arange(count, dtype=np.int64)
        for level in self.levels:
            if pending.size == 0:
                break
            level_hits = level.access_batch(pending)
            hits[pending_positions[level_hits]] = True
            pending = pending[~level_hits]
            pending_positions = pending_positions[~level_hits]
        return hits

    def miss_stream(self, blocks: Iterable[int]) -> np.ndarray:
        """Return the block addresses that miss in every level, in order.

        Arrays and sequences take the vectorised :meth:`access_batch` path
        directly; lazy iterables (generators) are consumed in bounded
        slices so only the misses are ever held, preserving the streaming
        memory profile of the serial per-access loop.
        """
        from repro.traces.trace import as_address_array

        if isinstance(blocks, np.ndarray) or hasattr(blocks, "__len__"):
            array = as_address_array(blocks)
            return array[~self.access_batch(array)]
        miss_chunks = list(self.miss_stream_chunks(_slices_of(blocks)))
        if not miss_chunks:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(miss_chunks)

    def miss_stream_chunks(self, chunks) -> Iterator[np.ndarray]:
        """Streaming :meth:`miss_stream`: miss chunks from address chunks.

        Cache state carries across chunks, so for any chunking of a block
        stream the concatenated output is byte-identical to
        :meth:`miss_stream` on the whole stream, with peak memory bounded
        by the chunk size.  The chunk loop is inherently sequential (each
        chunk sees the cache state the previous one left behind); the
        parallel axis of batch filtering is *across independent traces* —
        see :func:`miss_streams`.
        """
        from repro.core.stream import map_chunks

        return map_chunks(chunks, self.miss_stream)

    def stats(self) -> List[CacheStats]:
        """Return the per-level statistics, from first level to last."""
        return [level.stats for level in self.levels]

    def reset(self) -> None:
        """Reset every level (contents and statistics)."""
        for level in self.levels:
            level.reset()


def _miss_stream_task(task) -> np.ndarray:
    """Per-trace hierarchy-filter cell (fresh levels per trace)."""
    configs, blocks = task
    return CacheHierarchy(configs).miss_stream(blocks)


def miss_streams(
    traces,
    configs: Sequence[CacheConfig],
    workers: int = 1,
) -> List[np.ndarray]:
    """Filter several independent block traces through the same geometry.

    Each trace gets its own fresh hierarchy (independent workloads must not
    share cache state), so the cells fan out on
    :func:`~repro.core.parallel.map_ordered`.  Results are in input order
    and identical to ``[CacheHierarchy(configs).miss_stream(t) for t in
    traces]`` for every worker count.

    Args:
        traces: Iterable of block-address arrays (one per workload).
        configs: The hierarchy geometry applied to every trace.
        workers: Concurrent traces (``0``/``None`` = one per CPU).
    """
    from repro.core.parallel import map_ordered
    from repro.traces.trace import as_address_array

    configs = tuple(configs)
    tasks = [(configs, as_address_array(trace)) for trace in traces]
    return map_ordered(_miss_stream_task, tasks, workers=workers)
