"""Equivalence suite for the set-parallel cache-simulation kernels.

The kernel layer (:mod:`repro.core.kernels`) must be *bit-identical* to a
per-reference LRU: same hit masks, same
:class:`~repro.cache.cache.CacheStats` counters, same recency stacks, for
any trace and chunking.  This suite drives random traces through the
kernel and through :class:`OracleLru`, a per-set ``OrderedDict`` LRU
written here that shares no code with
:class:`~repro.cache.cache.LruStacks`, and asserts exact agreement,
including chunked streaming at chunk sizes 1/7/4096.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cache.cache as cache_module
import repro.core.kernels as kernels
from repro.cache.cache import (
    CacheConfig,
    CacheStats,
    SetAssociativeCache,
    access_lanes,
)
from repro.cache.stackdist import LruStackSimulator, MissRatioCurve
from repro.errors import ConfigurationError
from repro.traces.filter import CacheFilter, StreamingCacheFilter
from repro.traces.spec_like import generate_reference_stream, get_workload


@pytest.fixture(autouse=True)
def _always_kernel(monkeypatch):
    """Remove the small-batch cutoff so every batch exercises the kernel."""
    monkeypatch.setattr(cache_module, "KERNEL_MIN_BATCH", 0)


class OracleLru:
    """Per-set LRU over ``OrderedDict`` s (least recently used first).

    ``ways`` bounds each set; :meth:`access_block` returns the block's
    1-based recency depth before the reference, ``0`` when absent, and
    records it in :attr:`depths`.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = ways
        self.stats = CacheStats()
        self.depths: list = []

    @classmethod
    def of(cls, config: CacheConfig) -> "OracleLru":
        return cls(config.num_sets, config.associativity)

    def access_block(self, block: int) -> int:
        entries = self.sets[block % len(self.sets)]
        self.stats.accesses += 1
        depth = 0
        if block in entries:
            depth = len(entries) - list(entries).index(block)
            entries.move_to_end(block)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            if len(entries) == self.ways:
                entries.popitem(last=False)
                self.stats.evictions += 1
            entries[block] = None
        self.depths.append(depth)
        return depth

    def hits(self, blocks) -> np.ndarray:
        return np.array([self.access_block(int(block)) > 0 for block in blocks], dtype=bool)

    def stacks(self) -> list:
        """Every set's blocks, most recently used first."""
        return [list(reversed(entries)) for entries in self.sets]

    def curve(self) -> MissRatioCurve:
        """The stack-distance curve of every reference so far."""
        return MissRatioCurve(
            num_sets=len(self.sets),
            accesses=len(self.depths),
            miss_counts={
                ways: sum(1 for depth in self.depths if depth == 0 or depth > ways)
                for ways in range(1, self.ways + 1)
            },
        )


def _assert_same_state(cache: SetAssociativeCache, oracle: OracleLru) -> None:
    assert cache.stats == oracle.stats
    assert cache._lru.lists == oracle.stacks()


# Traces mix tight reuse, duplicate runs (instruction-stream shape) and
# cold streaming so every kernel regime (collapse, march) fires.
_blocks = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=400)
_repeats = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=400)


def _build_trace(values, repeats) -> np.ndarray:
    reps = (repeats * (len(values) // len(repeats) + 1))[: len(values)]
    return np.repeat(
        np.array(values, dtype=np.uint64), np.array(reps, dtype=np.int64)
    )


class TestKernelEquivalence:
    """Kernel vs the oracle, across geometries."""

    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats, sets_exp=st.integers(min_value=0, max_value=5))
    def test_access_batch_matches_serial(self, ways, sets_exp, values, repeats):
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=2**sets_exp, associativity=ways)
        batched = SetAssociativeCache(config)
        oracle = OracleLru.of(config)
        for chunk in np.array_split(trace, 3):
            assert np.array_equal(batched.access_batch(chunk), oracle.hits(chunk))
        _assert_same_state(batched, oracle)

    @pytest.mark.parametrize("chunk_size", [1, 7, 4096])
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats)
    def test_chunked_streaming_is_identical(self, chunk_size, values, repeats):
        """Any chunking of a batch leaves mask, stats and stacks unchanged."""
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=8, associativity=4)
        chunked = SetAssociativeCache(config)
        oracle = OracleLru.of(config)
        pieces = [
            chunked.access_batch(trace[start : start + chunk_size])
            for start in range(0, trace.size, chunk_size)
        ]
        assert np.array_equal(np.concatenate(pieces), oracle.hits(trace))
        _assert_same_state(chunked, oracle)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats)
    def test_mixed_serial_and_batch_phases(self, values, repeats):
        """Kernel batches interleave freely with single-reference accesses."""
        trace = _build_trace(values, repeats)
        config = CacheConfig(num_sets=8, associativity=4)
        mixed = SetAssociativeCache(config)
        oracle = OracleLru.of(config)
        third = max(1, trace.size // 3)
        mixed.access_batch(trace[:third])
        oracle.hits(trace[:third])
        for block in trace[third : 2 * third].tolist():
            assert mixed.access_block(block) == (oracle.access_block(block) > 0)
        assert np.array_equal(
            mixed.access_batch(trace[2 * third :]), oracle.hits(trace[2 * third :])
        )
        _assert_same_state(mixed, oracle)


def _lane_masks(caches, batches):
    """Run whole batches back to back through ``access_lanes``, batch ``i``
    on lane ``i``; one hit mask per lane."""
    lanes = np.repeat(np.arange(len(batches)), [len(batch) for batch in batches])
    hits = access_lanes(caches, np.concatenate(batches), lanes)
    return [hits[lanes == lane] for lane in range(len(batches))]


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
        oracles = [OracleLru.of(config) for config in configs]
        masks = _lane_masks(fused, batches)
        for cache, oracle, mask, batch in zip(fused, oracles, masks, batches):
            assert np.array_equal(mask, oracle.hits(batch))
            _assert_same_state(cache, oracle)

    def test_lane_count_mismatch_rejected(self):
        """A second lane with only one cache to route it to."""
        config = CacheConfig(num_sets=4, associativity=2)
        with pytest.raises(ConfigurationError, match="below 1"):
            access_lanes([SetAssociativeCache(config)], np.arange(2, dtype=np.uint64), [0, 1])

    def test_direct_mapped_lanes_fuse(self, monkeypatch):
        """A 1-way LRU pair takes the fused kernel, not per-cache batches."""
        config = CacheConfig(num_sets=8, associativity=1)
        rng = np.random.default_rng(5)
        batches = [rng.integers(0, 64, size=300, dtype=np.uint64) for _ in range(2)]
        fused = [SetAssociativeCache(config) for _ in batches]
        oracles = [OracleLru.of(config) for _ in batches]

        def refuse(self, blocks):
            raise AssertionError("a 1-way lane fell back to access_batch")

        monkeypatch.setattr(SetAssociativeCache, "access_batch", refuse)
        masks = _lane_masks(fused, batches)
        for cache, oracle, mask, batch in zip(fused, oracles, masks, batches):
            assert np.array_equal(mask, oracle.hits(batch))
            _assert_same_state(cache, oracle)

    def test_ineligible_caches_fall_back(self, monkeypatch):
        """A single-set lane has no set bits to build a row sentinel from,
        so the pair routes through plain per-cache batches."""
        configs = (
            CacheConfig(num_sets=1, associativity=2),
            CacheConfig(num_sets=4, associativity=2),
        )
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 50, size=300, dtype=np.uint64) for _ in configs]
        fused = [SetAssociativeCache(config) for config in configs]
        oracles = [OracleLru.of(config) for config in configs]
        solo = SetAssociativeCache.access_batch
        calls = []

        def counted(cache, blocks):
            calls.append(cache)
            return solo(cache, blocks)

        monkeypatch.setattr(SetAssociativeCache, "access_batch", counted)
        masks = _lane_masks(fused, batches)
        assert calls == fused
        for cache, oracle, mask, batch in zip(fused, oracles, masks, batches):
            assert np.array_equal(mask, oracle.hits(batch))
            _assert_same_state(cache, oracle)


def _oracle_lanes(configs, blocks, lanes):
    """Per-cache oracles fed the interleaved stream lane by lane."""
    oracles = [OracleLru.of(config) for config in configs]
    hits = [oracles[lane].access_block(block) > 0 for block, lane in zip(blocks.tolist(), lanes.tolist())]
    return oracles, np.array(hits, dtype=bool)


_lane_flags = st.lists(st.booleans(), min_size=1, max_size=64)


class TestInterleavedLanes:
    """``access_lanes``: one interleaved stream, a lane index per reference,
    one hit mask in stream order; each cache must end exactly where an
    ``OrderedDict`` LRU fed only its own references ends."""

    @staticmethod
    def _run(configs, blocks, lanes, chunk_size):
        caches = [SetAssociativeCache(config) for config in configs]
        oracles, expected = _oracle_lanes(configs, blocks, lanes)
        got = [
            access_lanes(caches, blocks[start : start + chunk_size], lanes[start : start + chunk_size])
            for start in range(0, blocks.size, chunk_size)
        ]
        assert np.array_equal(np.concatenate(got), expected)
        for cache, oracle in zip(caches, oracles):
            _assert_same_state(cache, oracle)
            assert cache.resident_blocks() == set().union(*oracle.sets)
        return caches

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_blocks, repeats=_repeats, flags=_lane_flags)
    def test_lanes_with_different_set_counts(self, chunk_size, values, repeats, flags):
        """A 16-set and an 8-set lane of one associativity share the row space."""
        blocks = _build_trace(values, repeats)
        lanes = np.resize(np.array(flags), blocks.size)
        configs = (CacheConfig(num_sets=16, associativity=4), CacheConfig(num_sets=8, associativity=4))
        self._run(configs, blocks, lanes, chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    def test_the_same_blocks_in_both_lanes(self, chunk_size):
        """Each block is referenced by both lanes, so only the lane keeps
        their recency stacks apart."""
        rng = np.random.default_rng(41)
        blocks = np.repeat(rng.integers(0, 120, size=1_500, dtype=np.uint64), 2)
        lanes = np.tile([True, False], 1_500)
        config = CacheConfig(num_sets=8, associativity=2)
        self._run((config, config), blocks, lanes, chunk_size)

    @pytest.mark.parametrize("lane", [0, 1])
    def test_handoffs_of_one_lane_only(self, lane):
        """All-data and all-instruction handoffs between mixed ones."""
        rng = np.random.default_rng(43 + lane)
        blocks = rng.integers(0, 400, size=3_000, dtype=np.uint64)
        lanes = rng.random(3_000) < 0.5
        lanes[1_000:2_000] = bool(lane)
        config = CacheConfig(num_sets=16, associativity=4)
        self._run((config, config), blocks, lanes, 1_000)

    @pytest.mark.parametrize("slice_blocks", [None, 1_000])
    def test_a_handoff_cut_across_slices(self, monkeypatch, slice_blocks):
        """A handoff longer than ``KERNEL_SLICE_BLOCKS`` marches in slices
        whose state carries over."""
        if slice_blocks:
            monkeypatch.setattr(cache_module, "KERNEL_SLICE_BLOCKS", slice_blocks)
        rng = np.random.default_rng(47)
        size = cache_module.KERNEL_SLICE_BLOCKS + 3_001
        blocks = rng.integers(0, 2_000, size=size, dtype=np.uint64)
        lanes = rng.random(size) < 0.4
        configs = (CacheConfig(num_sets=32, associativity=4), CacheConfig(num_sets=16, associativity=4))
        self._run(configs, blocks, lanes, size - 2_000)

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
    def test_mixed_associativity_falls_back_per_cache(self, monkeypatch, chunk_size):
        """A 4-way and an 8-way lane cannot share a row space: each cache
        gets its own ``access_batch`` and the kernel never sees both."""
        solo = SetAssociativeCache.access_batch
        calls = []

        def counted(cache, blocks):
            calls.append(cache)
            return solo(cache, blocks)

        monkeypatch.setattr(SetAssociativeCache, "access_batch", counted)
        rng = np.random.default_rng(53)
        blocks = rng.integers(0, 300, size=1_200, dtype=np.uint64)
        lanes = rng.random(1_200) < 0.5
        configs = (CacheConfig(num_sets=8, associativity=4), CacheConfig(num_sets=8, associativity=8))
        caches = self._run(configs, blocks, lanes, chunk_size)
        assert calls == caches * -(-1_200 // chunk_size)

    def test_lane_index_out_of_range_rejected(self):
        config = CacheConfig(num_sets=4, associativity=2)
        pair = [SetAssociativeCache(config), SetAssociativeCache(config)]
        blocks = np.arange(4, dtype=np.uint64)
        with pytest.raises(ConfigurationError, match="lanes"):
            access_lanes(pair, blocks, [0, 1, 2, 0])
        with pytest.raises(ConfigurationError, match="lanes"):
            access_lanes(pair, blocks, [0, 1])


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
        oracle = OracleLru(2**sets_exp, depth)
        kernel.access_trace(trace)
        oracle.hits(trace)
        assert kernel.curve() == oracle.curve()
        assert kernel._lru.lists == oracle.stacks()

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
        assert chunked._lru.lists == oneshot._lru.lists

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
        oracle = OracleLru(1, ways)
        for batch in batches:
            kernel.access_trace(batch)
            oracle.hits(batch)
            assert kernel.curve() == oracle.curve()
            assert kernel._lru.lists == oracle.stacks()
        if ways > 1:
            # the second batch's seed is a full carried stack of low blocks
            _assert_matches_oracle(CacheConfig(num_sets=1, associativity=ways), batches)

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
        blocks = stream.addresses >> np.uint64(6)
        instruction = OracleLru.of(fast.instruction_cache.config)
        data = OracleLru.of(fast.data_cache.config)
        misses = []
        for block, is_instr in zip(blocks.tolist(), stream.is_instruction.tolist()):
            oracle = instruction if is_instr else data
            if not oracle.access_block(block):
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


def _assert_matches_oracle(config: CacheConfig, batches) -> None:
    kernel = SetAssociativeCache(config)
    oracle = OracleLru.of(config)
    for batch in batches:
        assert np.array_equal(kernel.access_batch(batch), oracle.hits(batch))
    _assert_same_state(kernel, oracle)


class TestSegmentMarch:
    """LRU rows are cut into ``MARCH_SEGMENT_STEPS``-reference segments;
    segment edges, skew and carried state must not show in any result."""

    @pytest.mark.parametrize("ways", [4, 8])
    @pytest.mark.parametrize("length", [S - 1, S, S + 1, 3 * S + 1])
    def test_one_row_at_segment_edges(self, ways, length):
        walk = _one_set_walk(length)
        assert int(np.count_nonzero(walk[1:] != walk[:-1])) == length - 1
        config = CacheConfig(num_sets=16, associativity=ways)
        # the second batch starts from the first one's carried stacks
        _assert_matches_oracle(config, [walk, _one_set_walk(length, seed=1)])

    @pytest.mark.parametrize("ways", [4, 8])
    def test_one_set_holds_most_of_the_batch(self, ways):
        rng = np.random.default_rng(4)
        hot = _one_set_walk(18_500, distinct=40, seed=2)
        background = rng.integers(0, 4000, size=1_500, dtype=np.uint64)
        trace = np.concatenate([hot, background])
        rng.shuffle(trace)
        assert np.count_nonzero(trace % np.uint64(16) == 0) >= 0.9 * trace.size
        config = CacheConfig(num_sets=16, associativity=ways)
        _assert_matches_oracle(config, [trace[:12_000], trace[12_000:]])

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
        config = CacheConfig(num_sets=16, associativity=ways)
        _assert_matches_oracle(config, [walk, walk[::-1].copy()])

    @pytest.mark.parametrize("chunk_size", [1, 7, S, 4096])
    @pytest.mark.parametrize("ways", [4, 8])
    def test_chunked_streaming(self, chunk_size, ways):
        rng = np.random.default_rng(13)
        trace = np.repeat(
            rng.integers(0, 160, size=1_200, dtype=np.uint64),
            rng.integers(1, 3, size=1_200),
        )
        config = CacheConfig(num_sets=8, associativity=ways)
        pieces = [trace[start : start + chunk_size] for start in range(0, trace.size, chunk_size)]
        _assert_matches_oracle(config, pieces)

    @pytest.mark.parametrize("chunk_size", [1, 7, S, 4096])
    def test_chunked_fused_mixed_lanes(self, chunk_size):
        """A 4-way and an 8-way lane cannot share a row space, so they run
        per cache; chunking still matches the oracle."""
        rng = np.random.default_rng(17)
        streams = [rng.integers(0, 300, size=1_200, dtype=np.uint64) for _ in range(2)]
        configs = (
            CacheConfig(num_sets=8, associativity=4),
            CacheConfig(num_sets=16, associativity=8),
        )
        fused = [SetAssociativeCache(config) for config in configs]
        oracles = [OracleLru.of(config) for config in configs]
        for start in range(0, 1_200, chunk_size):
            pieces = [stream[start : start + chunk_size] for stream in streams]
            masks = _lane_masks(fused, pieces)
            for oracle, mask, piece in zip(oracles, masks, pieces):
                assert np.array_equal(mask, oracle.hits(piece))
        for cache, oracle in zip(fused, oracles):
            _assert_same_state(cache, oracle)

    @pytest.mark.parametrize("sets", [1, 4, 32])
    def test_depths_at_width_32(self, sets):
        rng = np.random.default_rng(21)
        trace = rng.integers(0, 60 * sets, size=6_000, dtype=np.uint64)
        kernel = LruStackSimulator(sets, max_associativity=32)
        oracle = OracleLru(sets, 32)
        kernel.access_trace(trace[:2_500])
        kernel.access_trace(trace[2_500:])
        oracle.hits(trace)
        assert kernel.curve() == oracle.curve()
        assert kernel._lru.lists == oracle.stacks()


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


#: SHA-256 of each source's ``StreamingCacheFilter`` miss blocks
#: (little-endian uint64) at the benchmark's scale: 1.1M data references
#: (2.2M references) in 65 536-reference handoffs, seed 1; pinned before the
#: filter stopped splitting its stream by lane.
FILTER_TRAFFIC_SHA256 = {
    "433.milc": "9a845892a4a83b981f550e7d2a8cb1e8a79dc1d04365d0f2e5517fdb958f97f4",
    "410.bwaves": "07a66061fb2a6482c32365b0d7c92541e7601c4c93be25a69c8ad5a846b1496d",
    "429.mcf": "2062060bdc4dbdcc1cd29f1381a2ae8b2728bfd54a25129b3bbd6ccb91944379",
    "403.gcc": "f1b890db747f95b7ca5dfc9c22b5342e8472e045f720a1665183432582c4ef9a",
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(FILTER_TRAFFIC_SHA256))
def test_streaming_filter_traffic_at_benchmark_scale(name):
    digest = hashlib.sha256()
    streaming = StreamingCacheFilter()
    for chunk in get_workload(name).reference_stream(1_100_000, seed=1).iter_chunks(65_536):
        digest.update(np.ascontiguousarray(streaming.filter_chunk(chunk), dtype="<u8").tobytes())
    assert digest.hexdigest() == FILTER_TRAFFIC_SHA256[name]
    assert streaming.instruction_stats == CacheStats(1_100_000, 1_097_411, 2_589, 2_077)


def test_paper_filter_makes_one_kernel_call_per_slice(monkeypatch):
    """The paper's L1I/L1D pair marches as one row space: one
    ``simulate_batch`` call per ``KERNEL_SLICE_BLOCKS`` slice of the
    interleaved stream, and no per-cache batch."""
    monkeypatch.setattr(cache_module, "KERNEL_SLICE_BLOCKS", 4_096)
    kernel = kernels.simulate_batch
    calls = []

    def counted(blocks, rows, *args, **kwargs):
        calls.append(int(blocks.size))
        return kernel(blocks, rows, *args, **kwargs)

    def refuse(cache, blocks):
        raise AssertionError("a filter lane fell back to access_batch")

    monkeypatch.setattr(kernels, "simulate_batch", counted)
    monkeypatch.setattr(SetAssociativeCache, "access_batch", refuse)
    streaming = StreamingCacheFilter()
    for chunk in generate_reference_stream("403.gcc", 10_000, seed=3).iter_chunks(9_000):
        streaming.filter_chunk(chunk)
    assert calls == [4_096, 4_096, 808] * 2 + [2_000]
