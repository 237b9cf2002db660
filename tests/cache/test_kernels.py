"""Equivalence suite for the set-parallel cache-simulation kernels.

The kernel layer (:mod:`repro.core.kernels`) must be *bit-identical* to the
serial per-reference simulators it replaces: same hit masks, same
:class:`~repro.cache.cache.CacheStats` counters, same resident blocks and
replacement stamps, for any trace, chunking and policy.  This suite drives
random traces through the serial loop (the semantics oracle) and the
kernel and asserts exact agreement, including the dirty/write-back and
RANDOM-replacement traces that must take the serial fallback, and chunked
streaming at chunk sizes 1/7/4096.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cache.cache as cache_module
import repro.cache.stackdist as stackdist_module
import repro.core.kernels as kernels
from repro.cache.cache import CacheConfig, SetAssociativeCache, access_batches
from repro.cache.stackdist import LruStackSimulator
from repro.errors import ConfigurationError
from repro.traces.filter import CacheFilter, StreamingCacheFilter
from repro.traces.spec_like import generate_reference_stream, get_workload


@pytest.fixture(autouse=True)
def _always_kernel(monkeypatch):
    """Remove the small-batch cutoffs so every batch exercises the kernel."""
    monkeypatch.setattr(cache_module, "KERNEL_MIN_BATCH", 0)
    monkeypatch.setattr(stackdist_module, "KERNEL_MIN_TRACE", 0)


def _serial_reference(config: CacheConfig, blocks) -> SetAssociativeCache:
    cache = SetAssociativeCache(config)
    for block in blocks:
        cache.access_block(int(block))
    return cache


def _serial_hits(cache: SetAssociativeCache, blocks) -> np.ndarray:
    return np.array([cache.access_block(int(block)) for block in blocks], dtype=bool)


def _assert_same_state(left: SetAssociativeCache, right: SetAssociativeCache) -> None:
    assert left.stats == right.stats
    assert left._sets == right._sets
    assert left._dirty == right._dirty
    assert left._clock == right._clock


# Traces mix tight reuse, duplicate runs (instruction-stream shape) and
# cold streaming so every kernel regime (collapse, march, serial) fires.
_blocks = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=400)
_repeats = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=400)


def _build_trace(values, repeats) -> np.ndarray:
    reps = (repeats * (len(values) // len(repeats) + 1))[: len(values)]
    return np.repeat(
        np.array(values, dtype=np.uint64), np.array(reps, dtype=np.int64)
    )


class TestKernelEquivalence:
    """Serial loop vs kernel, across the policy grid."""

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats, sets_exp=st.integers(min_value=0, max_value=5))
    def test_access_batch_matches_serial(self, policy, ways, sets_exp, values, repeats):
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=2**sets_exp, associativity=ways, policy=policy)
        batched = SetAssociativeCache(config, seed=7)
        serial = SetAssociativeCache(config, seed=7)
        for chunk in np.array_split(trace, 3):
            assert np.array_equal(batched.access_batch(chunk), _serial_hits(serial, chunk))
        _assert_same_state(batched, serial)

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats)
    def test_chunked_streaming_is_identical(self, chunk_size, policy, values, repeats):
        """Any chunking of a batch leaves mask, stats and stamps unchanged."""
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=8, associativity=4, policy=policy)
        chunked = SetAssociativeCache(config)
        serial = SetAssociativeCache(config)
        pieces = [
            chunked.access_batch(trace[start : start + chunk_size])
            for start in range(0, trace.size, chunk_size)
        ]
        assert np.array_equal(np.concatenate(pieces), _serial_hits(serial, trace))
        _assert_same_state(chunked, serial)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=_blocks,
        repeats=_repeats,
        writes=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=20),
    )
    def test_dirty_caches_fall_back_and_count_writebacks(self, values, repeats, writes):
        """Dirty blocks force the serial fallback with exact write-backs."""
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=4, associativity=2, policy="lru")
        batched = SetAssociativeCache(config)
        serial = SetAssociativeCache(config)
        for cache in (batched, serial):
            for block in writes:
                cache.access_block_rw(block, is_write=True)
        assert batched._dirty_block_count == sum(len(d) for d in batched._dirty)
        assert np.array_equal(batched.access_batch(trace), _serial_hits(serial, trace))
        _assert_same_state(batched, serial)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats)
    def test_mixed_serial_and_batch_phases(self, values, repeats):
        """Kernel batches interleave freely with single-reference accesses."""
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=8, associativity=4, policy="lru")
        mixed = SetAssociativeCache(config)
        serial = SetAssociativeCache(config)
        third = max(1, trace.size // 3)
        mixed.access_batch(trace[:third])
        _serial_hits(serial, trace[:third])
        for block in trace[third : 2 * third].tolist():
            assert mixed.access_block(block) == serial.access_block(block)
        assert np.array_equal(
            mixed.access_batch(trace[2 * third :]), _serial_hits(serial, trace[2 * third :])
        )
        _assert_same_state(mixed, serial)


class TestFusedBatches:
    # (4, 4) and (1, 1): both lanes share one row space despite different
    # set counts; (4, 2): mixed associativities run per cache
    @pytest.mark.parametrize("first_ways,second_ways", [(4, 4), (4, 2), (1, 1)])
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats, split=st.integers(min_value=1, max_value=9))
    def test_fused_lanes_match_independent_caches(
        self, first_ways, second_ways, values, repeats, split
    ):
        trace = _build_trace(values, repeats)
        cut = (trace.size * split) // 10
        batches = [trace[:cut], trace[cut:]]
        configs = (
            CacheConfig(num_sets=16, associativity=first_ways),
            CacheConfig(num_sets=8, associativity=second_ways),
        )
        fused = [SetAssociativeCache(config) for config in configs]
        solo = [SetAssociativeCache(config) for config in configs]
        masks = access_batches(fused, batches)
        for cache, reference, mask, batch in zip(fused, solo, masks, batches):
            assert np.array_equal(mask, _serial_hits(reference, batch))
            _assert_same_state(cache, reference)

    def test_lane_count_mismatch_rejected(self):
        config = CacheConfig(num_sets=4, associativity=2)
        with pytest.raises(ConfigurationError, match="block batches"):
            access_batches([SetAssociativeCache(config)], [])

    def test_direct_mapped_lanes_fuse(self, monkeypatch):
        """A 1-way LRU pair takes the fused kernel, not per-cache batches."""
        config = CacheConfig(num_sets=8, associativity=1)
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, 64, size=300, dtype=np.uint64) for _ in range(2)]
        fused = [SetAssociativeCache(config) for _ in batches]
        solo = [SetAssociativeCache(config) for _ in batches]

        def refuse(self, blocks):
            raise AssertionError("a 1-way lane fell back to access_batch")

        monkeypatch.setattr(SetAssociativeCache, "access_batch", refuse)
        masks = access_batches(fused, batches)
        for cache, reference, mask, batch in zip(fused, solo, masks, batches):
            assert np.array_equal(mask, _serial_hits(reference, batch))
            _assert_same_state(cache, reference)

    def test_ineligible_caches_fall_back(self):
        """A RANDOM-policy lane routes through plain per-cache batches."""
        configs = (
            CacheConfig(num_sets=4, associativity=2, policy="random"),
            CacheConfig(num_sets=4, associativity=2, policy="lru"),
        )
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 50, size=300, dtype=np.uint64) for _ in configs]
        fused = [SetAssociativeCache(config, seed=1) for config in configs]
        solo = [SetAssociativeCache(config, seed=1) for config in configs]
        masks = access_batches(fused, batches)
        for cache, reference, mask, batch in zip(fused, solo, masks, batches):
            assert np.array_equal(mask, _serial_hits(reference, batch))
            _assert_same_state(cache, reference)


class TestStackDistanceKernel:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=_blocks,
        repeats=_repeats,
        depth=st.integers(min_value=1, max_value=9),
        sets_exp=st.integers(min_value=0, max_value=4),
    )
    def test_access_trace_matches_serial_loop(self, values, repeats, depth, sets_exp):
        trace = _build_trace(values, repeats)
        kernel = LruStackSimulator(2**sets_exp, max_associativity=depth)
        serial = LruStackSimulator(2**sets_exp, max_associativity=depth)
        kernel.access_trace(trace)
        for block in trace.tolist():
            serial.access_block(block)
        assert kernel.curve() == serial.curve()
        assert kernel._stacks == serial._stacks

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    def test_chunked_trace_is_identical(self, chunk_size):
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 500, size=3000, dtype=np.uint64)
        chunked = LruStackSimulator(16, max_associativity=4)
        oneshot = LruStackSimulator(16, max_associativity=4)
        for start in range(0, trace.size, chunk_size):
            chunked.access_trace(trace[start : start + chunk_size])
        oneshot.access_trace(trace)
        assert chunked.curve() == oneshot.curve()
        assert chunked._stacks == oneshot._stacks

    def test_generator_input_still_streams(self):
        lazy = LruStackSimulator(8, max_associativity=4)
        eager = LruStackSimulator(8, max_associativity=4)
        lazy.access_trace(int(value) % 64 for value in range(5000))
        eager.access_trace(np.arange(5000, dtype=np.uint64) % np.uint64(64))
        assert lazy.curve() == eager.curve()


class TestKernelArguments:
    """Geometry edges and argument checks of ``simulate_batch``."""

    @pytest.mark.parametrize("ways", [1, 4, 16])
    def test_single_set_march_with_carried_seed(self, ways):
        """num_sets == 1 (mask 0) marches too.  Its sentinel is the smallest
        value absent from the batch and the carried stack; both batches
        cover every block ``0..n``, so the sentinel has to land above them."""
        rng = np.random.default_rng(9)
        n = 40
        cover = np.arange(n + 1, dtype=np.uint64)
        batches = [
            np.concatenate([cover, rng.integers(0, n + 1, size=300, dtype=np.uint64)]),
            np.concatenate([rng.integers(0, n + 1, size=300, dtype=np.uint64), cover[::-1]]),
        ]
        kernel = LruStackSimulator(1, max_associativity=ways)
        serial = LruStackSimulator(1, max_associativity=ways)
        for batch in batches:
            kernel.access_trace(batch)
            for block in batch.tolist():
                serial.access_block(block)
            assert kernel.curve() == serial.curve()
            assert kernel._stacks == serial._stacks
        if ways > 1:
            # the second batch's seed is a full carried stack of low blocks
            _assert_matches_serial(CacheConfig(num_sets=1, associativity=ways), batches)

    def test_kernel_rejects_bad_arguments(self):
        blocks = np.arange(10, dtype=np.uint64)
        rows = np.zeros(10, dtype=np.int64)
        with pytest.raises(ConfigurationError, match="equal length"):
            kernels.simulate_batch(blocks, rows[:-1], 0, 2)
        with pytest.raises(ConfigurationError, match="together"):
            kernels.simulate_batch(blocks, rows, 0, 2, stacks=np.zeros((1, 2), dtype=np.uint64))
        with pytest.raises(ConfigurationError, match="ways must be"):
            kernels.simulate_batch(blocks, rows, 0, 0)

    def test_empty_batch(self):
        result = kernels.simulate_batch(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), 7, 4
        )
        assert result.hits.size == 0
        assert result.rows.size == 0 and result.stacks.size == 0


class TestFilterKernelPaths:
    def test_filter_matches_per_reference_caches(self):
        stream = generate_reference_stream("403.gcc", 3_000, seed=1)
        fast = CacheFilter()
        blocks = (stream.addresses >> np.uint64(6)).astype(np.uint64)
        instruction = SetAssociativeCache(fast.instruction_cache.config)
        data = SetAssociativeCache(fast.data_cache.config)
        misses = []
        for block, is_instr in zip(blocks.tolist(), stream.is_instruction.tolist()):
            cache = instruction if is_instr else data
            if not cache.access_block(block):
                misses.append(block)
        result = fast.filter(stream)
        assert result.trace.addresses.tolist() == misses
        assert result.instruction_stats == instruction.stats
        assert result.data_stats == data.stats


S = kernels.MARCH_SEGMENT_STEPS


def _one_set_walk(length: int, sets: int = 16, distinct: int = 11, seed: int = 0) -> np.ndarray:
    """``length`` references to set 0 that never repeat back to back, so
    every reference survives the collapse: exactly ``length`` collapsed
    references in one row."""
    steps = np.random.default_rng(seed).integers(1, distinct, size=length)
    return (np.cumsum(steps) % distinct).astype(np.uint64) * np.uint64(sets)


def _assert_matches_serial(config: CacheConfig, batches) -> None:
    kernel = SetAssociativeCache(config)
    serial = SetAssociativeCache(config)
    for batch in batches:
        assert np.array_equal(kernel.access_batch(batch), _serial_hits(serial, batch))
    _assert_same_state(kernel, serial)


class TestSegmentMarch:
    """LRU rows are cut into ``MARCH_SEGMENT_STEPS``-reference segments;
    segment edges, skew and carried state must not show in any result."""

    @pytest.mark.parametrize("ways", [4, 8])
    @pytest.mark.parametrize("length", [S - 1, S, S + 1, 3 * S + 1])
    def test_one_row_at_segment_edges(self, ways, length):
        walk = _one_set_walk(length)
        assert int(np.count_nonzero(walk[1:] != walk[:-1])) == length - 1
        config = CacheConfig(num_sets=16, associativity=ways, policy="lru")
        # the second batch starts from the first one's carried stacks
        _assert_matches_serial(config, [walk, _one_set_walk(length, seed=1)])

    @pytest.mark.parametrize("ways", [4, 8])
    def test_one_set_holds_most_of_the_batch(self, ways):
        rng = np.random.default_rng(4)
        hot = _one_set_walk(18_500, distinct=40, seed=2)
        background = rng.integers(0, 4000, size=1_500, dtype=np.uint64)
        trace = np.concatenate([hot, background])
        rng.shuffle(trace)
        assert np.count_nonzero(trace % np.uint64(16) == 0) >= 0.9 * trace.size
        config = CacheConfig(num_sets=16, associativity=ways, policy="lru")
        _assert_matches_serial(config, [trace[:12_000], trace[12_000:]])

    @pytest.mark.parametrize("ways, back", [(8, 3), (32, 14)])
    def test_sparse_segments_seed_from_far_back(self, ways, back):
        """Segments touching two blocks each leave short summaries, so a
        seed must merge many earlier segments (every scan round)."""
        segments = []
        for j in range(24):
            pair = np.array([2 * j, 2 * j + 1], dtype=np.uint64) * np.uint64(16)
            revisit = np.uint64(16 * 2 * max(j - back, 0))
            segments.append(np.concatenate([[revisit], np.tile(pair, S // 2)])[:S])
        walk = np.concatenate(segments)
        config = CacheConfig(num_sets=16, associativity=ways, policy="lru")
        _assert_matches_serial(config, [walk, walk[::-1].copy()])

    @pytest.mark.parametrize("chunk_size", [1, 7, S, 4096])
    @pytest.mark.parametrize("ways", [4, 8])
    def test_chunked_streaming(self, chunk_size, ways):
        rng = np.random.default_rng(13)
        trace = np.repeat(
            rng.integers(0, 160, size=1_200, dtype=np.uint64),
            rng.integers(1, 3, size=1_200),
        )
        config = CacheConfig(num_sets=8, associativity=ways, policy="lru")
        pieces = [trace[start : start + chunk_size] for start in range(0, trace.size, chunk_size)]
        _assert_matches_serial(config, pieces)

    @pytest.mark.parametrize("chunk_size", [1, 7, S, 4096])
    def test_chunked_fused_mixed_lanes(self, chunk_size):
        """A 4-way and an 8-way lane cannot share a row space, so they run
        per cache; chunking still matches the serial loop."""
        rng = np.random.default_rng(17)
        streams = [rng.integers(0, 300, size=1_200, dtype=np.uint64) for _ in range(2)]
        configs = (
            CacheConfig(num_sets=8, associativity=4),
            CacheConfig(num_sets=16, associativity=8),
        )
        fused = [SetAssociativeCache(config) for config in configs]
        solo = [SetAssociativeCache(config) for config in configs]
        for start in range(0, 1_200, chunk_size):
            pieces = [stream[start : start + chunk_size] for stream in streams]
            masks = access_batches(fused, pieces)
            for reference, mask, piece in zip(solo, masks, pieces):
                assert np.array_equal(mask, _serial_hits(reference, piece))
        for cache, reference in zip(fused, solo):
            _assert_same_state(cache, reference)

    @pytest.mark.parametrize("sets", [1, 4, 32])
    def test_depths_at_width_32(self, sets):
        rng = np.random.default_rng(21)
        trace = rng.integers(0, 60 * sets, size=6_000, dtype=np.uint64)
        kernel = LruStackSimulator(sets, max_associativity=32)
        serial = LruStackSimulator(sets, max_associativity=32)
        kernel.access_trace(trace[:2_500])
        kernel.access_trace(trace[2_500:])
        for block in trace.tolist():
            serial.access_block(block)
        assert kernel.curve() == serial.curve()
        assert kernel._stacks == serial._stacks


#: SHA-256 of the concatenated ``StreamingCacheFilter`` miss blocks
#: (little-endian uint64) of the four streams below, pinned before the
#: segment march replaced the whole-row march.
FILTER_GOLDEN_SHA256 = "fdca43801b48c07b50d2a774fc1a8f89c4dc56b9e47209c8b4480b9604adcbcc"


def test_streaming_filter_golden():
    digest = hashlib.sha256()
    for name in ("429.mcf", "403.gcc", "433.milc", "410.bwaves"):
        streaming = StreamingCacheFilter()
        stream = get_workload(name).reference_stream(200_000, seed=0)
        for chunk in stream.iter_chunks(65_536):
            misses = streaming.filter_chunk(chunk)
            digest.update(np.ascontiguousarray(misses, dtype="<u8").tobytes())
    assert digest.hexdigest() == FILTER_GOLDEN_SHA256
