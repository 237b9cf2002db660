"""Tests of the set-associative cache simulator."""

from __future__ import annotations

import numpy as np
import pytest

import repro.cache.cache as cache_module
from repro.cache.cache import (
    KERNEL_MIN_BATCH,
    CacheConfig,
    CacheStats,
    SetAssociativeCache,
    access_lanes,
)
from repro.errors import ConfigurationError
from repro.traces.spec_like import generate_reference_stream


class TestCacheConfig:
    def test_capacity_computation(self):
        config = CacheConfig(num_sets=128, associativity=4, block_bytes=64)
        assert config.capacity_bytes == 32 * 1024
        assert config.capacity_blocks == 512

    def test_from_capacity(self):
        config = CacheConfig.from_capacity(32 * 1024, associativity=4)
        assert config.num_sets == 128

    def test_from_capacity_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig.from_capacity(1000, associativity=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sets": 0, "associativity": 1},
            {"num_sets": 3, "associativity": 1},
            {"num_sets": 4, "associativity": 0},
            {"num_sets": 4, "associativity": 1, "block_bytes": 33},
            {"num_sets": 4, "associativity": 1, "block_bytes": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            CacheConfig(**kwargs)


class TestCacheStats:
    def test_ratios(self):
        stats = CacheStats(accesses=10, hits=7, misses=3)
        assert stats.hit_ratio == pytest.approx(0.7)
        assert stats.miss_ratio == pytest.approx(0.3)

    def test_empty_ratios(self):
        assert CacheStats().miss_ratio == 0.0
        assert CacheStats().hit_ratio == 0.0

    def test_merge(self):
        merged = CacheStats(10, 7, 3, 1).merge(CacheStats(20, 10, 10, 5))
        assert merged.accesses == 30
        assert merged.misses == 13
        assert merged.evictions == 6


class TestSetAssociativeCacheBasics:
    def test_first_access_misses_second_hits(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2))
        assert cache.access_block(100) is False
        assert cache.access_block(100) is True
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_byte_address_access_maps_to_block(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2, block_bytes=64))
        cache.access(0)
        assert cache.access(63) is True  # same 64-byte block
        assert cache.access(64) is False  # next block

    def test_capacity_eviction_lru(self):
        # Direct-mapped set of 1 way: the second distinct block evicts the first.
        cache = SetAssociativeCache(CacheConfig(num_sets=1, associativity=1))
        cache.access_block(0)
        cache.access_block(1)
        assert cache.access_block(0) is False
        assert cache.stats.evictions >= 1

    def test_lru_evicts_least_recently_used(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=1, associativity=2))
        cache.access_block(0)
        cache.access_block(1)
        cache.access_block(0)       # 1 is now LRU
        cache.access_block(2)       # evicts 1
        assert cache.access_block(0) is True
        assert cache.access_block(1) is False

    def test_set_mapping_uses_low_bits(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=1))
        cache.access_block(0)
        cache.access_block(4)  # same set (block % 4 == 0), evicts block 0
        assert cache.access_block(0) is False
        cache.access_block(1)  # different set, no interference
        assert cache.access_block(1) is True

    def test_contains_and_resident_blocks(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2))
        cache.access_block(10)
        assert cache.contains_block(10)
        assert 10 in cache.resident_blocks()

    def test_flush_and_reset(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2))
        cache.access_block(1)
        cache.flush()
        assert not cache.contains_block(1)
        assert cache.stats.accesses == 1
        cache.reset()
        assert cache.stats.accesses == 0


class TestCacheTraceHelpers:
    def test_access_trace_counts(self, working_set_addresses):
        cache = SetAssociativeCache(CacheConfig(num_sets=64, associativity=4))
        stats = cache.access_trace(working_set_addresses[:5_000].tolist())
        assert stats.accesses == 5_000
        assert stats.hits + stats.misses == 5_000

    def test_miss_stream_matches_miss_count(self, working_set_addresses):
        cache = SetAssociativeCache(CacheConfig(num_sets=64, associativity=4))
        misses = cache.miss_stream(working_set_addresses[:5_000].tolist())
        assert misses.size == cache.stats.misses

    def test_fully_resident_working_set_has_cold_misses_only(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=64, associativity=4))
        blocks = np.tile(np.arange(100, dtype=np.uint64), 50)
        cache.access_trace(blocks.tolist())
        assert cache.stats.misses == 100  # only compulsory misses

    def test_miss_ratio_of_random_access_matches_theory(self):
        """Random access over N blocks with a C-block cache: miss ~ 1 - C/N."""
        rng = np.random.default_rng(0)
        num_blocks = 4_096
        cache_blocks = 1_024
        cache = SetAssociativeCache(CacheConfig(num_sets=256, associativity=4))
        blocks = rng.integers(0, num_blocks, size=60_000, dtype=np.uint64)
        stats = cache.access_trace(blocks.tolist())
        expected = 1.0 - cache_blocks / num_blocks
        assert stats.miss_ratio == pytest.approx(expected, abs=0.05)


def _serial_hits(cache: SetAssociativeCache, blocks: np.ndarray) -> np.ndarray:
    """Reference implementation: one access_block call per element."""
    return np.array([cache.access_block(int(block)) for block in blocks], dtype=bool)


class TestAccessBatchEquivalence:
    """The vectorised batch paths must be bit-identical to the serial loop."""

    # both sides of the kernel cut-off, at the default thresholds
    @pytest.mark.parametrize("batch_size", [1, KERNEL_MIN_BATCH - 1, KERNEL_MIN_BATCH, 800])
    @pytest.mark.parametrize("associativity", [1, 2, 4])
    def test_hits_stats_and_state_match_serial(self, associativity, batch_size):
        rng = np.random.default_rng(2009)
        config = CacheConfig(num_sets=16, associativity=associativity)
        batched = SetAssociativeCache(config)
        serial = SetAssociativeCache(config)
        trace = rng.integers(0, 150, size=2400, dtype=np.uint64)
        for start in range(0, trace.size, batch_size):
            blocks = trace[start : start + batch_size]
            assert np.array_equal(batched.access_batch(blocks), _serial_hits(serial, blocks))
            assert batched.stats == serial.stats
            assert batched._lru.lists == serial._lru.lists

    @pytest.mark.parametrize("associativity", [1, 4])
    def test_batch_interoperates_with_serial_accesses(self, associativity):
        """A batch phase followed by single accesses behaves like all-serial."""
        rng = np.random.default_rng(7)
        config = CacheConfig(num_sets=8, associativity=associativity)
        mixed = SetAssociativeCache(config)
        reference = SetAssociativeCache(config)
        blocks = rng.integers(0, 64, size=500, dtype=np.uint64)
        mixed.access_batch(blocks)
        _serial_hits(reference, blocks)
        follow_up = rng.integers(0, 64, size=200, dtype=np.uint64)
        for block in follow_up.tolist():
            assert mixed.access_block(block) == reference.access_block(block)
        assert mixed.stats == reference.stats

    @pytest.mark.parametrize("name", ["429.mcf", "403.gcc", "433.milc", "410.bwaves", "470.lbm"])
    def test_workload_streams_match_serial(self, name):
        """The paper's L1 geometry on workload-shaped block streams."""
        blocks = generate_reference_stream(name, 12_000, seed=2).addresses >> np.uint64(6)
        config = CacheConfig.from_capacity(32 * 1024, associativity=4)
        batched = SetAssociativeCache(config)
        serial = SetAssociativeCache(config)
        for piece in np.array_split(blocks, 4):
            assert np.array_equal(batched.access_batch(piece), _serial_hits(serial, piece))
        assert batched.stats == serial.stats
        assert batched._lru.lists == serial._lru.lists

    @pytest.mark.parametrize("slice_blocks", [KERNEL_MIN_BATCH, 500, 1_999])
    def test_fused_slices_match_one_shot(self, monkeypatch, slice_blocks):
        """Fused lanes of unequal length march in joint slices; a lane
        that runs out early must keep its state through the later ones."""
        rng = np.random.default_rng(31)
        batches = [
            rng.integers(0, 600, size=5_000, dtype=np.uint64),
            rng.integers(0, 600, size=1_200, dtype=np.uint64),
        ]
        configs = (
            CacheConfig(num_sets=32, associativity=4),
            CacheConfig(num_sets=8, associativity=4),
        )
        blocks = np.concatenate(batches)
        lanes = np.repeat([0, 1], [batch.size for batch in batches])
        oneshot = [SetAssociativeCache(config) for config in configs]
        expected = access_lanes(oneshot, blocks, lanes)
        monkeypatch.setattr(cache_module, "KERNEL_SLICE_BLOCKS", slice_blocks)
        sliced = [SetAssociativeCache(config) for config in configs]
        hits = access_lanes(sliced, blocks, lanes)
        for lane, (cache, reference) in enumerate(zip(sliced, oneshot)):
            assert np.array_equal(hits[lanes == lane], expected[lanes == lane])
            assert cache.stats == reference.stats
            assert cache._lru.lists == reference._lru.lists

    def test_empty_batch(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2))
        assert cache.access_batch(np.empty(0, dtype=np.uint64)).size == 0
        assert cache.stats.accesses == 0

    def test_batch_accepts_plain_iterables(self):
        cache = SetAssociativeCache(CacheConfig(num_sets=4, associativity=2))
        hits = cache.access_batch([1, 1, 2])
        assert hits.tolist() == [False, True, False]


class TestLruBounds:
    """Bounds every LRU geometry obeys, whichever batch path runs it."""

    @pytest.mark.parametrize("name", ["429.mcf", "403.gcc", "433.milc", "470.lbm"])
    def test_more_ways_never_miss_more(self, name):
        """LRU is a stack algorithm per set: at a fixed set count, the
        misses of ``w`` ways are a superset of those of ``2w`` ways."""
        blocks = generate_reference_stream(name, 20_000, seed=1).addresses >> np.uint64(6)
        previous = None
        for ways in (1, 2, 4, 8):
            cache = SetAssociativeCache(CacheConfig(num_sets=32, associativity=ways))
            misses = ~cache.access_batch(blocks)
            if previous is not None:
                assert not np.any(misses & ~previous), f"{ways} ways missed where fewer hit"
            previous = misses

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    def test_misses_bounded_below_by_cold_misses(self, associativity):
        rng = np.random.default_rng(11)
        blocks = rng.integers(0, 3_000, size=6_000, dtype=np.uint64)
        cache = SetAssociativeCache(CacheConfig(num_sets=64, associativity=associativity))
        misses = cache.miss_stream(blocks)
        assert misses.size >= np.unique(blocks).size
        # every block misses on its first reference
        assert set(np.unique(misses).tolist()) == set(np.unique(blocks).tolist())

    @pytest.mark.parametrize("associativity", [1, 4])
    def test_sequential_scan_never_hits(self, associativity):
        cache = SetAssociativeCache(CacheConfig(num_sets=16, associativity=associativity))
        blocks = np.arange(1_000, dtype=np.uint64)
        assert not cache.access_batch(blocks).any()
        assert cache.stats.misses == blocks.size
