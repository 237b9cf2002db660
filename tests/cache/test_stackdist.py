"""Tests of the Mattson stack-distance multi-associativity simulator."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.cache.stackdist import LruStackSimulator, simulate_miss_curve
from repro.errors import ConfigurationError


def _oracle_misses(blocks, num_sets: int, ways: int) -> int:
    """Misses of a per-set ``OrderedDict`` LRU written independently of
    :class:`~repro.cache.cache.LruStacks` (least recently used first)."""
    sets = [OrderedDict() for _ in range(num_sets)]
    misses = 0
    for block in map(int, blocks):
        entries = sets[block % num_sets]
        if block in entries:
            entries.move_to_end(block)
            continue
        misses += 1
        if len(entries) == ways:
            entries.popitem(last=False)
        entries[block] = None
    return misses


class TestLruStackSimulator:
    def test_invalid_configurations(self):
        with pytest.raises(ConfigurationError):
            LruStackSimulator(num_sets=3)
        with pytest.raises(ConfigurationError):
            LruStackSimulator(num_sets=4, max_associativity=0)

    def test_cold_misses_reported_at_all_associativities(self):
        simulator = LruStackSimulator(num_sets=1, max_associativity=4)
        simulator.access_trace([1, 2, 3])
        curve = simulator.curve()
        for associativity in range(1, 5):
            assert curve.miss_counts[associativity] == 3

    def test_reuse_depth_controls_hit_threshold(self):
        simulator = LruStackSimulator(num_sets=1, max_associativity=4)
        # Access pattern A B C A: the second A has stack depth 3.
        simulator.access_trace([1, 2, 3, 1])
        curve = simulator.curve()
        assert curve.miss_counts[2] == 4   # depth 3 misses in a 2-way cache
        assert curve.miss_counts[3] == 3   # but hits in a 3-way cache
        assert curve.miss_counts[4] == 3

    def test_miss_ratio_monotonically_non_increasing_in_associativity(self, working_set_addresses):
        curve = simulate_miss_curve(working_set_addresses[:20_000], num_sets=64)
        series = curve.as_series()
        assert all(earlier >= later - 1e-12 for earlier, later in zip(series, series[1:]))

    def test_curve_accessors(self, working_set_addresses):
        curve = simulate_miss_curve(working_set_addresses[:5_000], num_sets=16, max_associativity=8)
        assert curve.associativities == list(range(1, 9))
        assert 0.0 <= curve.miss_ratio(4) <= 1.0
        with pytest.raises(ConfigurationError):
            curve.miss_ratio(16)

    def test_empty_trace(self):
        curve = LruStackSimulator(num_sets=4).curve()
        assert curve.accesses == 0
        assert curve.miss_ratio(1) == 0.0

    @pytest.mark.parametrize("associativity", [1, 2, 4, 8])
    def test_matches_direct_lru_simulation(self, associativity, working_set_addresses):
        """Mattson inclusion: one stack pass == per-associativity simulation."""
        blocks = working_set_addresses[:8_000]
        num_sets = 32
        curve = simulate_miss_curve(blocks, num_sets=num_sets, max_associativity=8)
        direct = SetAssociativeCache(CacheConfig(num_sets=num_sets, associativity=associativity))
        direct.access_trace(blocks.tolist())
        assert curve.miss_counts[associativity] == direct.stats.misses
        assert direct.stats.misses == _oracle_misses(blocks, num_sets, associativity)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=400),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 3]),
    )
    def test_matches_direct_simulation_property(self, blocks, num_sets, associativity):
        curve = simulate_miss_curve(blocks, num_sets=num_sets, max_associativity=4)
        direct = SetAssociativeCache(CacheConfig(num_sets=num_sets, associativity=associativity))
        direct.access_trace(blocks)
        assert curve.miss_counts[associativity] == direct.stats.misses
        assert direct.stats.misses == _oracle_misses(blocks, num_sets, associativity)
