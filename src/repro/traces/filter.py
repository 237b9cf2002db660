"""Cache filter front-end: reference stream -> cache-filtered address trace.

Reproduces the paper's trace-collection setup (Section 4.2): every
instruction fetch goes through a level-1 instruction cache and every data
reference through a level-1 data cache; both are 32 KB, 4-way
set-associative, 64-byte blocks, LRU.  "The filtered address sequence
contains missing instruction and data block addresses in sequential order."

The output is an :class:`~repro.traces.trace.AddressTrace` of *block*
addresses whose six most significant bits are zero (64-byte blocks), i.e.
exactly the input format of the ATC compressor.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.cache.cache import CacheConfig, CacheStats, SetAssociativeCache, access_lanes
from repro.errors import ConfigurationError
from repro.traces.synthetic import ReferenceStream
from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES, AddressTrace

__all__ = [
    "PAPER_L1_CONFIG",
    "CacheFilter",
    "StreamingCacheFilter",
    "FilterResult",
    "filter_reference_stream",
    "filter_reference_streams",
    "filtered_spec_like_trace",
    "filter_spec_like_traces",
    "iter_filtered_spec_like_chunks",
]

#: The paper's filter cache geometry: 32 KB, 4-way, 64-byte blocks, LRU.
PAPER_L1_CONFIG = CacheConfig.from_capacity(
    capacity_bytes=32 * 1024, associativity=4, block_bytes=64, name="L1"
)


@dataclass(frozen=True)
class FilterResult:
    """Output of a cache-filter run.

    Attributes:
        trace: The cache-filtered trace of block addresses, in miss order.
        instruction_stats: Hit/miss counters of the L1 instruction cache.
        data_stats: Hit/miss counters of the L1 data cache.
    """

    trace: AddressTrace
    instruction_stats: CacheStats
    data_stats: CacheStats

    @property
    def total_references(self) -> int:
        """Number of references presented to the filter caches."""
        return self.instruction_stats.accesses + self.data_stats.accesses

    @property
    def filter_ratio(self) -> float:
        """Fraction of references that survived filtering (miss ratio)."""
        if self.total_references == 0:
            return 0.0
        return len(self.trace) / self.total_references


class CacheFilter:
    """L1I + L1D filter producing cache-filtered block-address traces."""

    def __init__(
        self,
        instruction_config: CacheConfig = PAPER_L1_CONFIG,
        data_config: CacheConfig = PAPER_L1_CONFIG,
    ) -> None:
        if instruction_config.block_bytes != data_config.block_bytes:
            raise ConfigurationError("instruction and data caches must share the block size")
        self.instruction_cache = SetAssociativeCache(instruction_config)
        self.data_cache = SetAssociativeCache(data_config)
        self.block_bytes = data_config.block_bytes
        self._block_shift = self.block_bytes.bit_length() - 1

    def miss_blocks(self, stream: ReferenceStream) -> np.ndarray:
        """Filter one reference stream and return its miss-block array.

        The instruction and data caches never interact, so the interleaved
        stream goes whole to :func:`~repro.cache.cache.access_lanes`, its
        ``is_instruction`` flags as the lane index: the set-parallel array
        kernel marches the L1D and L1I sets as one row space and returns
        the hit mask in stream order, so the misses are the blocks where
        it is clear, with no split or merge.  Cache state persists across
        calls, which is what makes chunked filtering byte-identical to
        one-shot filtering (see :class:`StreamingCacheFilter`).
        """
        blocks = stream.addresses >> np.uint64(self._block_shift)
        hits = access_lanes((self.data_cache, self.instruction_cache), blocks, stream.is_instruction)
        return np.compress(~hits, blocks)

    def filter(self, stream: ReferenceStream) -> FilterResult:
        """Filter one reference stream and return the miss trace and stats.

        The stats count this call's references only; cache contents still
        carry over from earlier calls.
        """
        caches = (self.instruction_cache, self.data_cache)
        before = [astuple(cache.stats) for cache in caches]
        trace = AddressTrace(self.miss_blocks(stream), name=stream.name)
        instruction_stats, data_stats = (
            CacheStats(*(now - then for now, then in zip(astuple(cache.stats), old)))
            for cache, old in zip(caches, before)
        )
        return FilterResult(trace=trace, instruction_stats=instruction_stats, data_stats=data_stats)

    def reset(self) -> None:
        """Reset both filter caches (contents and statistics)."""
        self.instruction_cache.reset()
        self.data_cache.reset()


class StreamingCacheFilter:
    """Chunked cache filter: reference-stream chunks in, miss chunks out.

    The filter caches carry their state (contents, recency order, counters)
    across chunks, so for any chunking of a reference stream the
    concatenated output of :meth:`filter_chunks` is byte-identical to
    ``CacheFilter().filter(stream).trace.addresses`` on the whole stream —
    while peak memory stays bounded by the chunk size.

    Typical use::

        filt = StreamingCacheFilter()
        miss_chunks = filt.filter_chunks(stream.iter_chunks(65536))
        encoder.encode_stream(miss_chunks)
    """

    def __init__(
        self,
        instruction_config: CacheConfig = PAPER_L1_CONFIG,
        data_config: CacheConfig = PAPER_L1_CONFIG,
    ) -> None:
        self.cache_filter = CacheFilter(instruction_config, data_config)

    def filter_chunk(self, chunk: ReferenceStream) -> np.ndarray:
        """Filter one chunk, carrying cache state from previous chunks."""
        return self.cache_filter.miss_blocks(chunk)

    def filter_chunks(self, chunks: Iterable[ReferenceStream]) -> Iterator[np.ndarray]:
        """Yield the miss-block chunk of every reference-stream chunk.

        A lazy generator: chunks are filtered one at a time as the consumer
        pulls them, so a whole-trace pipeline never holds more than one
        reference chunk and its (shorter) miss chunk.
        """
        from repro.core.stream import map_chunks

        return map_chunks(chunks, self.filter_chunk)

    @property
    def instruction_stats(self) -> CacheStats:
        """Hit/miss counters of the L1 instruction cache so far."""
        return self.cache_filter.instruction_cache.stats

    @property
    def data_stats(self) -> CacheStats:
        """Hit/miss counters of the L1 data cache so far."""
        return self.cache_filter.data_cache.stats

    def reset(self) -> None:
        """Reset both filter caches (contents and statistics)."""
        self.cache_filter.reset()


def filter_reference_stream(
    stream: ReferenceStream,
    instruction_config: CacheConfig = PAPER_L1_CONFIG,
    data_config: CacheConfig = PAPER_L1_CONFIG,
) -> FilterResult:
    """Filter ``stream`` with fresh L1I/L1D caches (one-shot convenience)."""
    return CacheFilter(instruction_config, data_config).filter(stream)


def _filter_stream_task(task) -> FilterResult:
    """Per-stream batch-filter cell."""
    stream, instruction_config, data_config = task
    return filter_reference_stream(stream, instruction_config, data_config)


def filter_reference_streams(
    streams,
    instruction_config: CacheConfig = PAPER_L1_CONFIG,
    data_config: CacheConfig = PAPER_L1_CONFIG,
    workers: int = 1,
):
    """Batch-filter several independent reference streams, in input order.

    Each stream is filtered through its own fresh L1I/L1D pair (streams are
    independent workloads, exactly the paper's per-benchmark setup), so the
    cells can fan out on :func:`~repro.core.parallel.map_ordered`.  The
    per-stream results are identical to
    ``[filter_reference_stream(s, ...) for s in streams]`` for every worker
    count.

    Args:
        streams: Iterable of :class:`~repro.traces.synthetic.ReferenceStream`.
        instruction_config: L1I geometry applied to every stream.
        data_config: L1D geometry applied to every stream.
        workers: Concurrent cells (``0``/``None`` = one per usable CPU).

    Returns:
        ``List[FilterResult]`` in the order the streams were given.
    """
    from repro.core.parallel import map_ordered

    tasks = [(stream, instruction_config, data_config) for stream in streams]
    return map_ordered(_filter_stream_task, tasks, workers=workers)


def filtered_spec_like_trace(
    name: str,
    reference_count: int,
    seed: int = 0,
    instruction_config: CacheConfig = PAPER_L1_CONFIG,
    data_config: CacheConfig = PAPER_L1_CONFIG,
) -> AddressTrace:
    """Generate a spec-like workload and return its cache-filtered trace.

    This is the single call used throughout the benchmark harness to obtain
    the analogue of the paper's per-benchmark traces.

    Args:
        name: Workload name (e.g. ``"429.mcf"`` or ``"429"``).
        reference_count: Number of *data* references to generate before
            filtering (the filtered trace is shorter, by the filter ratio).
        seed: Workload RNG seed.
        instruction_config: L1I geometry (paper default).
        data_config: L1D geometry (paper default).

    Example:
        >>> trace = filtered_spec_like_trace("462.libquantum", 3000)
        >>> trace.name
        '462.libquantum'
        >>> 0 < len(trace)                       # misses survive the filter...
        True
        >>> bool(trace.addresses.max() < 1 << 58)   # ...as 64-byte block addresses
        True
    """
    from repro.traces.spec_like import generate_reference_stream

    stream = generate_reference_stream(name, reference_count, seed=seed)
    return filter_reference_stream(stream, instruction_config, data_config).trace


def _spec_like_trace_task(task):
    """Generate+filter cell: returns ``(name, miss_addresses)``."""
    name, reference_count, seed, instruction_config, data_config = task
    trace = filtered_spec_like_trace(
        name,
        reference_count,
        seed=seed,
        instruction_config=instruction_config,
        data_config=data_config,
    )
    return name, trace.addresses


def filter_spec_like_traces(
    names,
    reference_count: int,
    seed: int = 0,
    instruction_config: CacheConfig = PAPER_L1_CONFIG,
    data_config: CacheConfig = PAPER_L1_CONFIG,
    workers: int = 1,
):
    """Generate and cache-filter several spec-like workloads concurrently.

    The batch form of :func:`filtered_spec_like_trace` — the whole-suite
    fan-out the benchmark harness and sweep runner pay for up front.  Each
    workload is generated and filtered independently (fresh caches per
    workload), so cells parallelise perfectly.  Results are identical to
    the serial loop for every worker count.

    Args:
        names: Workload names, e.g. ``["429.mcf", "462.libquantum"]``.
        reference_count: Data references generated per workload.
        seed: Workload RNG seed (same for every workload, like the bench
            suite).
        instruction_config: L1I geometry (paper default).
        data_config: L1D geometry (paper default).
        workers: Concurrent workloads (``0``/``None`` = one per usable CPU).

    Returns:
        ``Dict[str, AddressTrace]`` keyed by workload name, in input order.
    """
    from repro.core.parallel import map_ordered

    tasks = [
        (str(name), int(reference_count), int(seed), instruction_config, data_config)
        for name in names
    ]
    results = map_ordered(_spec_like_trace_task, tasks, workers=workers)
    return {name: AddressTrace(addresses, name=name) for name, addresses in results}


def iter_filtered_spec_like_chunks(
    name: str,
    reference_count: int,
    chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES,
    seed: int = 0,
    instruction_config: CacheConfig = PAPER_L1_CONFIG,
    data_config: CacheConfig = PAPER_L1_CONFIG,
) -> Iterator[np.ndarray]:
    """Stream the cache-filtered trace of a spec-like workload in chunks.

    The concatenated chunks are byte-identical to
    ``filtered_spec_like_trace(name, reference_count, seed).addresses``
    with the same cache geometry; downstream consumers (the ATC encoder)
    see chunk-bounded memory.
    """
    from repro.traces.spec_like import get_workload

    streaming_filter = StreamingCacheFilter(instruction_config, data_config)
    chunks = get_workload(name).iter_chunks(reference_count, chunk_addresses, seed=seed)
    return streaming_filter.filter_chunks(chunks)
