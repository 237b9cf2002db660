"""Tests of the reuse-distance and footprint analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reuse import (
    footprint_curve,
    reuse_distance_histogram,
    working_set_sizes,
)
from repro.cache.stackdist import simulate_miss_curve
from repro.errors import ConfigurationError


class TestReuseDistanceHistogram:
    def test_cold_references_counted(self):
        histogram = reuse_distance_histogram([1, 2, 3, 4])
        assert histogram.cold_references == 4
        assert histogram.total_references == 4
        assert histogram.bucket_counts == {}

    def test_immediate_reuse_has_distance_zero(self):
        histogram = reuse_distance_histogram([5, 5, 5])
        assert histogram.bucket_counts.get(0) == 2

    def test_known_distances(self):
        # Trace A B C A: the second A has reuse distance 2 (B and C).
        histogram = reuse_distance_histogram([1, 2, 3, 1])
        # Distance 2 falls in bucket 2 ([2, 3]).
        assert histogram.bucket_counts.get(2) == 1
        assert histogram.cold_references == 3

    def test_distance_counts_distinct_blocks_not_references(self):
        # A B B B A: distance of the second A is 1 (only B in between).
        histogram = reuse_distance_histogram([1, 2, 2, 2, 1])
        assert histogram.bucket_counts.get(1) == 1

    def test_fully_associative_miss_ratio_matches_stack_simulation(self, working_set_addresses):
        """Reuse-distance CDF == fully associative (1-set) LRU miss ratio."""
        blocks = working_set_addresses[:6_000]
        histogram = reuse_distance_histogram(blocks)
        curve = simulate_miss_curve(blocks, num_sets=1, max_associativity=32)
        for cache_blocks in (1, 2, 4, 8, 16, 32):
            assert histogram.miss_ratio(cache_blocks) == pytest.approx(
                curve.miss_ratio(cache_blocks), abs=0.02
            )

    def test_distribution_sums_to_one(self, working_set_addresses):
        histogram = reuse_distance_histogram(working_set_addresses[:4_000])
        assert sum(histogram.distribution().values()) == pytest.approx(1.0)

    def test_l1_distance_identical_is_zero(self, working_set_addresses):
        histogram = reuse_distance_histogram(working_set_addresses[:3_000])
        assert histogram.l1_distance(histogram) == 0.0

    def test_l1_distance_between_different_traces(self, working_set_addresses, sequential_addresses):
        a = reuse_distance_histogram(working_set_addresses[:3_000])
        b = reuse_distance_histogram(sequential_addresses[:3_000])
        assert a.l1_distance(b) > 0.5

    def test_max_tracked_limits_work(self, working_set_addresses):
        histogram = reuse_distance_histogram(working_set_addresses, max_tracked=1_000)
        assert histogram.total_references == 1_000
        with pytest.raises(ConfigurationError):
            reuse_distance_histogram(working_set_addresses, max_tracked=-1)

    def test_lossy_container_preserves_reuse_distribution(self, working_set_addresses, encode):
        """Extended fidelity check: the lossy trace keeps the reuse shape."""
        from repro.core.lossy import LossyConfig

        approx = encode(working_set_addresses, LossyConfig(interval_length=10_000)).read_all()
        exact_hist = reuse_distance_histogram(working_set_addresses)
        lossy_hist = reuse_distance_histogram(approx)
        assert exact_hist.l1_distance(lossy_hist) < 0.2


class TestFootprintCurve:
    def test_monotone_and_ends_at_distinct_count(self, working_set_addresses):
        blocks = working_set_addresses[:5_000]
        curve = footprint_curve(blocks, points=16)
        footprints = [footprint for _, footprint in curve]
        assert all(a <= b for a, b in zip(footprints, footprints[1:]))
        assert footprints[-1] == int(np.unique(blocks).size)

    def test_empty_trace(self):
        assert footprint_curve([]) == [(0, 0)]

    def test_invalid_points(self):
        with pytest.raises(ConfigurationError):
            footprint_curve([1, 2, 3], points=0)

    def test_sequential_trace_footprint_equals_prefix_length(self):
        curve = footprint_curve(list(range(1_000)), points=8)
        for prefix_length, footprint in curve:
            assert footprint == prefix_length


class TestWorkingSetSizes:
    def test_window_partition(self):
        sizes = working_set_sizes([1, 1, 2, 2, 3, 3], window=2)
        assert sizes == [1, 1, 1]

    def test_phase_change_visible(self):
        trace = [1, 2, 3, 4] * 25 + list(range(100, 200))
        sizes = working_set_sizes(trace, window=50)
        assert sizes[0] == 4
        assert sizes[-1] == 50

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            working_set_sizes([1], window=0)
