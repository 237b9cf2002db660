"""Tests of the byte-unshuffling baseline (Table 1 column "us")."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.generic import raw_bits_per_address
from repro.baselines.unshuffle import (
    compress_unshuffled,
    decompress_unshuffled,
    reshuffle_window,
    unshuffle_inverse,
    unshuffle_transform,
    unshuffle_window,
    unshuffled_bits_per_address,
)
from repro.errors import CodecError


class TestUnshuffleWindow:
    def test_roundtrip(self, random_addresses):
        window = random_addresses[:1_000]
        assert np.array_equal(reshuffle_window(unshuffle_window(window)), window)

    def test_msb_column_first(self):
        values = np.array([0x1122334455667788, 0xAABBCCDDEEFF0011], dtype=np.uint64)
        payload = unshuffle_window(values)
        assert payload[:2] == bytes([0x11, 0xAA])
        assert payload[-2:] == bytes([0x88, 0x11])

    def test_paper_example_f2_column(self):
        """Section 4.1: F200..F2FF unshuffles into an F2 block + 00..FF block."""
        values = np.arange(0xF200, 0xF300, dtype=np.uint64)
        payload = unshuffle_window(values)
        count = values.size
        assert payload[-2 * count : -count] == bytes([0xF2] * count)
        assert payload[-count:] == bytes(range(256))

    def test_rejects_partial_window(self):
        with pytest.raises(CodecError):
            reshuffle_window(b"\x00" * 9)

    def test_roundtrip_decreasing_values(self):
        values = np.array([1000, 500, 400, 1 << 63, 3], dtype=np.uint64)
        assert np.array_equal(reshuffle_window(unshuffle_window(values)), values)

    def test_roundtrip_extremes(self):
        values = np.array([0, (1 << 64) - 1, 0, 1 << 63], dtype=np.uint64)
        assert np.array_equal(reshuffle_window(unshuffle_window(values)), values)

    def test_empty_window(self):
        assert unshuffle_window(np.empty(0, dtype=np.uint64)) == b""
        assert reshuffle_window(b"").size == 0


class TestUnshuffleStreaming:
    def test_roundtrip_with_windows(self, random_addresses):
        payload = unshuffle_transform(random_addresses, buffer_addresses=777)
        assert np.array_equal(unshuffle_inverse(payload, buffer_addresses=777), random_addresses)

    def test_empty_trace(self):
        assert unshuffle_inverse(unshuffle_transform(np.empty(0, dtype=np.uint64))).size == 0

    def test_trace_filling_whole_windows(self, random_addresses):
        trace = random_addresses[:3_000]
        payload = unshuffle_transform(trace, buffer_addresses=1_000)
        assert len(payload) == 8 * trace.size
        assert np.array_equal(unshuffle_inverse(payload, buffer_addresses=1_000), trace)

    def test_truncated_payload_rejected(self, random_addresses):
        payload = unshuffle_transform(random_addresses[:100], buffer_addresses=64)
        with pytest.raises(CodecError):
            unshuffle_inverse(payload[:-1], buffer_addresses=64)

    @pytest.mark.parametrize("backend", ["bz2", "zlib", "lzma"])
    def test_compressed_roundtrip_on_each_backend(self, working_set_addresses, backend):
        """``sweep_sched`` runs unshuffle over all three back-ends."""
        payload = compress_unshuffled(working_set_addresses, 10_000, backend)
        assert np.array_equal(
            decompress_unshuffled(payload, 10_000, backend), working_set_addresses
        )

    def test_compressed_roundtrip(self, working_set_addresses):
        payload = compress_unshuffled(working_set_addresses, buffer_addresses=10_000)
        assert np.array_equal(
            decompress_unshuffled(payload, buffer_addresses=10_000), working_set_addresses
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=64),
    )
    def test_roundtrip_property(self, values, buffer_addresses):
        array = np.array(values, dtype=np.uint64)
        payload = unshuffle_transform(array, buffer_addresses)
        assert np.array_equal(unshuffle_inverse(payload, buffer_addresses), array)


class TestUnshuffleCompressionQuality:
    def test_beats_plain_bzip2_on_filtered_trace(self, filtered_trace):
        """Table 1's claim: unshuffling improves on bzip2 alone."""
        addresses = filtered_trace.addresses
        assert unshuffled_bits_per_address(addresses) < raw_bits_per_address(addresses)

    def test_strided_trace_compresses_extremely_well(self, sequential_addresses):
        assert unshuffled_bits_per_address(sequential_addresses) < 1.0

    def test_empty_trace(self):
        assert unshuffled_bits_per_address(np.empty(0, dtype=np.uint64)) == 0.0
