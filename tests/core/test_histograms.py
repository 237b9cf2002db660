"""Tests of byte histograms, interval distances and byte translations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histograms import (
    IntervalSummary,
    apply_translation,
    byte_histograms,
    byte_translation,
    histogram_distance,
    identity_translation,
    interval_distance,
    sort_histograms,
    translation_active_mask,
)
from repro.errors import CodecError


class TestByteHistograms:
    def test_counts_sum_to_length(self, random_addresses):
        histograms = byte_histograms(random_addresses)
        assert histograms.shape == (8, 256)
        assert np.all(histograms.sum(axis=1) == random_addresses.size)

    def test_empty_interval(self):
        histograms = byte_histograms(np.empty(0, dtype=np.uint64))
        assert histograms.sum() == 0

    def test_known_values(self):
        values = np.array([0x0102, 0x0102, 0x0203], dtype=np.uint64)
        histograms = byte_histograms(values)
        assert histograms[0][0x02] == 2  # low byte 0x02 appears twice
        assert histograms[0][0x03] == 1
        assert histograms[1][0x01] == 2  # byte order 1 value 0x01 appears twice
        assert histograms[1][0x02] == 1
        assert histograms[7][0x00] == 3  # top byte always zero

    def test_byte_order_convention_is_little_endian_order_index(self):
        values = np.array([0xAB00000000000000], dtype=np.uint64)
        histograms = byte_histograms(values)
        assert histograms[7][0xAB] == 1
        assert histograms[0][0x00] == 1


class TestSortedHistograms:
    def test_sorted_histograms_are_decreasing(self, working_set_addresses):
        histograms = byte_histograms(working_set_addresses)
        sorted_histograms, permutations = sort_histograms(histograms)
        for j in range(8):
            assert np.all(np.diff(sorted_histograms[j]) <= 0)
            # permutation property
            assert sorted(permutations[j].tolist()) == list(range(256))
            assert np.array_equal(sorted_histograms[j], histograms[j][permutations[j]])

    def test_tie_break_is_by_byte_value(self):
        # All byte values appear exactly once in the low byte: the stable
        # sort must keep them in increasing byte-value order.
        values = np.arange(256, dtype=np.uint64)
        histograms = byte_histograms(values)
        _, permutations = sort_histograms(histograms)
        assert np.array_equal(permutations[0], np.arange(256))

    def test_most_frequent_first(self):
        values = np.array([0x11, 0x11, 0x11, 0x22], dtype=np.uint64)
        histograms = byte_histograms(values)
        _, permutations = sort_histograms(histograms)
        assert permutations[0][0] == 0x11
        assert permutations[0][1] == 0x22

    def test_rejects_bad_shape(self):
        with pytest.raises(CodecError):
            sort_histograms(np.zeros((4, 256), dtype=np.int64))


class TestHistogramDistance:
    def test_identical_histograms_have_zero_distance(self, random_addresses):
        histograms = byte_histograms(random_addresses)
        for j in range(8):
            assert histogram_distance(histograms[j], histograms[j]) == 0.0

    def test_disjoint_histograms_have_distance_two(self):
        histogram_a = np.zeros(256, dtype=np.int64)
        histogram_b = np.zeros(256, dtype=np.int64)
        histogram_a[0] = 100
        histogram_b[1] = 100
        assert histogram_distance(histogram_a, histogram_b) == pytest.approx(2.0)

    def test_distance_is_symmetric(self, rng):
        histogram_a = rng.integers(0, 50, size=256)
        histogram_b = rng.integers(0, 50, size=256)
        assert histogram_distance(histogram_a, histogram_b) == pytest.approx(
            histogram_distance(histogram_b, histogram_a)
        )

    def test_distance_bounds(self, rng):
        for _ in range(20):
            histogram_a = rng.integers(0, 50, size=256)
            histogram_b = rng.integers(0, 50, size=256)
            distance = histogram_distance(histogram_a, histogram_b)
            assert 0.0 <= distance <= 2.0

    def test_normalisation_extends_to_unequal_lengths(self):
        histogram_a = np.zeros(256, dtype=np.int64)
        histogram_b = np.zeros(256, dtype=np.int64)
        histogram_a[5] = 10
        histogram_b[5] = 1000
        # Same shape (all mass on one value) so the distance must be zero.
        assert histogram_distance(histogram_a, histogram_b) == pytest.approx(0.0)


class TestIntervalSummaryAndDistance:
    def test_summary_from_addresses(self, working_set_addresses):
        summary = IntervalSummary.from_addresses(working_set_addresses)
        assert summary.length == working_set_addresses.size
        assert summary.histograms.shape == (8, 256)

    def test_self_distance_is_zero(self, working_set_addresses):
        summary = IntervalSummary.from_addresses(working_set_addresses)
        assert interval_distance(summary, summary) == 0.0

    def test_shifted_regions_have_zero_sorted_distance(self):
        """The paper's example: F200..F2FF vs F300..F3FF look identical."""
        interval_a = np.arange(0xF200, 0xF300, dtype=np.uint64)
        interval_b = np.arange(0xF300, 0xF400, dtype=np.uint64)
        summary_a = IntervalSummary.from_addresses(interval_a)
        summary_b = IntervalSummary.from_addresses(interval_b)
        assert interval_distance(summary_a, summary_b) == pytest.approx(0.0)

    def test_different_structures_have_positive_distance(self, rng):
        stream = np.arange(0, 10_000, dtype=np.uint64)
        random_values = rng.integers(0, 1 << 40, size=10_000, dtype=np.uint64)
        distance = interval_distance(
            IntervalSummary.from_addresses(stream),
            IntervalSummary.from_addresses(random_values),
        )
        assert distance > 0.5

    def test_distance_symmetry(self, rng):
        interval_a = rng.integers(0, 1 << 32, size=5_000, dtype=np.uint64)
        interval_b = rng.integers(0, 1 << 48, size=5_000, dtype=np.uint64)
        summary_a = IntervalSummary.from_addresses(interval_a)
        summary_b = IntervalSummary.from_addresses(interval_b)
        assert interval_distance(summary_a, summary_b) == pytest.approx(
            interval_distance(summary_b, summary_a)
        )


class TestByteTranslation:
    def test_paper_example_translation(self):
        """Section 5.1: interval A = F200..F2FF, B = F300..F3FF.

        The translation for byte order 1 must map F2 -> F3 and the low byte
        must be left alone (distance zero), producing a perfect imitation.
        """
        interval_a = np.arange(0xF200, 0xF300, dtype=np.uint64)
        interval_b = np.arange(0xF300, 0xF400, dtype=np.uint64)
        summary_a = IntervalSummary.from_addresses(interval_a)
        summary_b = IntervalSummary.from_addresses(interval_b)
        translations = byte_translation(summary_a, summary_b)
        assert translations[1][0xF2] == 0xF3
        active = translation_active_mask(summary_a, summary_b, threshold=0.1)
        assert bool(active[1]) is True
        assert bool(active[0]) is False
        imitation = apply_translation(interval_a, translations, active)
        assert np.array_equal(imitation, interval_b)

    def test_translation_rows_are_permutations(self, rng):
        interval_a = rng.integers(0, 1 << 40, size=4_000, dtype=np.uint64)
        interval_b = rng.integers(0, 1 << 40, size=4_000, dtype=np.uint64)
        translations = byte_translation(
            IntervalSummary.from_addresses(interval_a), IntervalSummary.from_addresses(interval_b)
        )
        for j in range(8):
            assert sorted(translations[j].tolist()) == list(range(256))

    def test_translation_preserves_distinct_count(self, rng):
        """Permutation property: distinct addresses stay distinct."""
        interval_a = rng.integers(0, 1 << 40, size=4_000, dtype=np.uint64)
        interval_b = rng.integers(1 << 41, 1 << 42, size=4_000, dtype=np.uint64)
        summary_a = IntervalSummary.from_addresses(interval_a)
        summary_b = IntervalSummary.from_addresses(interval_b)
        translations = byte_translation(summary_a, summary_b)
        translated = apply_translation(interval_a, translations)
        assert np.unique(translated).size == np.unique(interval_a).size

    def test_identity_translation_is_noop(self, random_addresses):
        translated = apply_translation(random_addresses, identity_translation())
        assert np.array_equal(translated, random_addresses)

    def test_inactive_mask_leaves_bytes_alone(self, random_addresses):
        summary = IntervalSummary.from_addresses(random_addresses)
        shifted = IntervalSummary.from_addresses(random_addresses + np.uint64(1 << 40))
        translations = byte_translation(summary, shifted)
        untouched = apply_translation(random_addresses, translations, np.zeros(8, dtype=bool))
        assert np.array_equal(untouched, random_addresses)

    def test_apply_translation_rejects_bad_shapes(self, random_addresses):
        with pytest.raises(CodecError):
            apply_translation(random_addresses, np.zeros((2, 256), dtype=np.uint8))
        with pytest.raises(CodecError):
            apply_translation(
                random_addresses, identity_translation(), np.zeros(3, dtype=bool)
            )

    def test_empty_interval_translation(self):
        result = apply_translation(np.empty(0, dtype=np.uint64), identity_translation())
        assert result.size == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200))
    def test_translation_sends_most_frequent_to_most_frequent(self, values):
        interval_a = np.array(values, dtype=np.uint64)
        interval_b = interval_a ^ np.uint64(0x5A5A5A5A5A5A5A5A)
        summary_a = IntervalSummary.from_addresses(interval_a)
        summary_b = IntervalSummary.from_addresses(interval_b)
        translations = byte_translation(summary_a, summary_b)
        for j in range(8):
            most_frequent_a = summary_a.permutations[j][0]
            most_frequent_b = summary_b.permutations[j][0]
            assert translations[j][most_frequent_a] == most_frequent_b


def _translate_by_hand(values, table, active):
    """Per-address, per-byte oracle of :func:`apply_translation`."""
    translated = []
    for value in values:
        result = 0
        for j in range(8):
            byte = (value >> (8 * j)) & 0xFF
            if active[j]:
                byte = int(table[j][byte])
            result |= byte << (8 * j)
        translated.append(result)
    return translated


_masks = st.one_of(
    st.just([False] * 8), st.just([True] * 8), st.lists(st.booleans(), min_size=8, max_size=8)
)


class TestTranslationOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=64),
        table_seed=st.integers(min_value=0, max_value=2**32 - 1),
        table_dtype=st.sampled_from([np.uint8, np.int64]),
        active=_masks,
        layout=st.sampled_from(["contiguous", "strided", "reversed", "read-only"]),
        into_out=st.booleans(),
    )
    def test_kernel_matches_a_per_address_byte_mapping(
        self, values, table_seed, table_dtype, active, layout, into_out
    ):
        table = np.random.default_rng(table_seed).integers(0, 256, size=(8, 256))
        translations = table.astype(table_dtype)
        if layout == "strided":
            addresses = np.repeat(np.array(values, dtype=np.uint64), 2)[::2]
        elif layout == "reversed":
            addresses = np.array(values[::-1], dtype=np.uint64)[::-1]
        else:
            addresses = np.array(values, dtype=np.uint64)
            if layout == "read-only":
                addresses.setflags(write=False)
        before = addresses.copy()
        out = np.full(len(values), 0xA5A5, dtype=np.uint64) if into_out else None
        result = apply_translation(addresses, translations, np.array(active), out=out)
        assert result.dtype == np.uint64
        assert result.tolist() == _translate_by_hand(values, translations.tolist(), active)
        assert np.array_equal(addresses, before)
        if into_out:
            assert result is out
        else:
            assert not np.shares_memory(result, addresses)

    def test_out_must_hold_the_interval_in_place(self, random_addresses):
        values = random_addresses[:10]
        for out in (
            np.empty(9, dtype=np.uint64),
            np.empty(1, dtype=np.uint64),
            np.empty(10, dtype=np.int64),
            np.empty(20, dtype=np.uint64)[::2],
        ):
            with pytest.raises(CodecError):
                apply_translation(values, identity_translation(), out=out)
