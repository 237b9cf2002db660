"""Tests of the L1I/L1D cache filter front-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import CacheConfig
from repro.errors import ConfigurationError
from repro.traces import synthetic
from repro.traces.filter import (
    PAPER_L1_CONFIG,
    CacheFilter,
    StreamingCacheFilter,
    filter_reference_stream,
    filtered_spec_like_trace,
)
from repro.traces.spec_like import get_workload
from repro.traces.synthetic import make_reference_stream


class TestPaperL1Config:
    def test_geometry_matches_section_4_2(self):
        assert PAPER_L1_CONFIG.capacity_bytes == 32 * 1024
        assert PAPER_L1_CONFIG.associativity == 4
        assert PAPER_L1_CONFIG.block_bytes == 64
        assert PAPER_L1_CONFIG.num_sets == 128


class TestCacheFilter:
    def test_cache_resident_working_set_produces_few_misses(self):
        """A working set smaller than 32 KB should be filtered away."""
        data = synthetic.random_working_set(20_000, working_set_blocks=128, seed=0)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert result.filter_ratio < 0.05

    def test_streaming_data_misses_once_per_block(self):
        data = synthetic.sequential_stream(16_384, base=0x4000_0000, stride=8)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        # 16384 * 8 bytes = 128 KB touched = 2048 blocks, each missing once.
        assert len(result.trace) == 2_048

    def test_output_is_block_addresses(self):
        data = synthetic.sequential_stream(4_096, base=0x4000_0000, stride=64)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert result.trace.addresses.max() < (1 << 58)
        assert np.array_equal(
            result.trace.addresses,
            np.arange(0x4000_0000 // 64, 0x4000_0000 // 64 + 4_096, dtype=np.uint64),
        )

    def test_instruction_and_data_use_separate_caches(self):
        data = synthetic.sequential_stream(2_000, base=0x4000_0000, stride=64)
        stream = make_reference_stream(data, instruction_ratio=1.0, seed=0)
        cache_filter = CacheFilter()
        result = cache_filter.filter(stream)
        assert result.instruction_stats.accesses == 2_000
        assert result.data_stats.accesses == 2_000
        assert result.total_references == 4_000

    def test_misses_preserve_program_order(self):
        data = synthetic.strided_stream(1_000, base=0, stride=4096)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        result = filter_reference_stream(stream)
        assert np.array_equal(result.trace.addresses, data >> np.uint64(6))

    def test_mismatched_block_sizes_rejected(self):
        other = CacheConfig(num_sets=64, associativity=4, block_bytes=32)
        with pytest.raises(ConfigurationError):
            CacheFilter(instruction_config=PAPER_L1_CONFIG, data_config=other)

    def test_reset_clears_state(self):
        data = synthetic.sequential_stream(4_096, base=0, stride=64)
        stream = make_reference_stream(data, instruction_ratio=0.0)
        cache_filter = CacheFilter()
        first = cache_filter.filter(stream)
        cache_filter.reset()
        second = cache_filter.filter(stream)
        assert len(first.trace) == len(second.trace)

    def test_each_result_counts_only_its_own_call(self):
        """A later call on the same filter leaves earlier results alone."""
        stream = get_workload("429.mcf").reference_stream(20_000, seed=0)
        cache_filter = CacheFilter()
        first = cache_filter.filter(stream)
        counts = (first.total_references, first.filter_ratio, first.data_stats.misses)
        second = cache_filter.filter(stream)
        assert (first.total_references, first.filter_ratio, first.data_stats.misses) == counts
        assert first.total_references == second.total_references == len(stream)
        # the caches stay warm: the replay misses less, and the live
        # counters hold both calls
        assert len(second.trace) < len(first.trace)
        assert cache_filter.data_cache.stats == first.data_stats.merge(second.data_stats)


    @pytest.mark.parametrize("name", ["429.mcf", "403.gcc", "433.milc", "410.bwaves"])
    def test_result_counts_split_the_stream(self, name):
        """Each reference lands in exactly one cache's counters, and every
        counted miss is one block of the filtered trace."""
        stream = get_workload(name).reference_stream(20_000, seed=0)
        result = CacheFilter().filter(stream)
        instructions = int(np.count_nonzero(stream.is_instruction))
        assert result.instruction_stats.accesses == instructions
        assert result.data_stats.accesses == len(stream) - instructions
        for stats in (result.instruction_stats, result.data_stats):
            assert stats.hits + stats.misses == stats.accesses
        misses = result.instruction_stats.misses + result.data_stats.misses
        assert len(result.trace) == misses

    def test_streaming_stats_stay_cumulative(self):
        """Unlike a :class:`FilterResult`, the streaming filter's counters
        are the caches' live ones and add up over every chunk."""
        stream = get_workload("403.gcc").reference_stream(30_000, seed=0)
        streaming = StreamingCacheFilter()
        seen = misses = 0
        for chunk in stream.iter_chunks(7_000):
            misses += int(streaming.filter_chunk(chunk).size)
            seen += len(chunk)
            total = streaming.instruction_stats.merge(streaming.data_stats)
            assert total.accesses == seen
            assert total.misses == misses
        assert streaming.data_stats is streaming.cache_filter.data_cache.stats


class TestFilteredSpecLikeTrace:
    def test_end_to_end_trace_generation(self):
        trace = filtered_spec_like_trace("433.milc", 10_000, seed=0)
        assert trace.name == "433.milc"
        assert len(trace) > 0

    def test_deterministic(self):
        a = filtered_spec_like_trace("445.gobmk", 5_000, seed=3)
        b = filtered_spec_like_trace("445.gobmk", 5_000, seed=3)
        assert a == b

    def test_regular_workloads_filter_down_more_than_random(self):
        streaming = filtered_spec_like_trace("453.povray", 10_000, seed=0)
        pointer = filtered_spec_like_trace("429.mcf", 10_000, seed=0)
        assert len(streaming) < len(pointer)


class TestFilterBatchEquivalence:
    """The vectorised split-by-cache filter must match the interleaved loop."""

    def test_matches_serial_interleaved_reference(self):
        from repro.cache.cache import SetAssociativeCache

        stream = synthetic.make_reference_stream(
            synthetic.random_working_set(8_000, working_set_blocks=3_000, seed=3), seed=4
        )
        result = CacheFilter().filter(stream)

        icache = SetAssociativeCache(PAPER_L1_CONFIG)
        dcache = SetAssociativeCache(PAPER_L1_CONFIG)
        shift = np.uint64(6)
        blocks = (stream.addresses >> shift).astype(np.uint64)
        expected = []
        for block, instruction in zip(blocks.tolist(), stream.is_instruction.tolist()):
            cache = icache if instruction else dcache
            if not cache.access_block(block):
                expected.append(block)
        assert result.trace.addresses.tolist() == expected
        assert result.instruction_stats == icache.stats
        assert result.data_stats == dcache.stats
