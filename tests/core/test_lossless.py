"""Tests of the bytesort-based chunk codec and of lossless containers."""

from __future__ import annotations

import bz2
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.generic import raw_bits_per_address
from repro.core.atc import MODE_LOSSLESS
from repro.core.backend import CompressionBackend
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig
from repro.errors import CodecError


@pytest.fixture
def lossless_bpa(encode):
    """Bits per address of a lossless container with a given bytesort buffer."""

    def measure(addresses, buffer_addresses):
        config = LossyConfig(chunk_buffer_addresses=buffer_addresses)
        return encode(addresses, config, mode=MODE_LOSSLESS).bits_per_address()

    return measure


class TestLosslessRoundtrip:
    @pytest.mark.parametrize("buffer_addresses", [100, 1_000, 50_000])
    def test_roundtrip_sequential(self, sequential_addresses, buffer_addresses):
        codec = LosslessCodec(buffer_addresses=buffer_addresses)
        assert np.array_equal(codec.decompress(codec.compress(sequential_addresses)), sequential_addresses)

    def test_roundtrip_random(self, random_addresses):
        codec = LosslessCodec(buffer_addresses=3_000)
        assert np.array_equal(codec.decompress(codec.compress(random_addresses)), random_addresses)

    def test_roundtrip_working_set(self, working_set_addresses):
        codec = LosslessCodec(buffer_addresses=10_000)
        payload = codec.compress(working_set_addresses)
        assert np.array_equal(codec.decompress(payload), working_set_addresses)

    def test_roundtrip_empty_trace(self):
        codec = LosslessCodec()
        assert codec.decompress(codec.compress(np.empty(0, dtype=np.uint64))).size == 0

    def test_decompressor_reads_buffer_size_from_header(self, random_addresses):
        payload = LosslessCodec(buffer_addresses=777).compress(random_addresses)
        assert np.array_equal(LosslessCodec().decompress(payload), random_addresses)

    @pytest.mark.parametrize("backend", ["bz2", "zlib", "lzma", "store"])
    def test_roundtrip_all_backends(self, sequential_addresses, backend):
        codec = LosslessCodec(buffer_addresses=5_000, backend=backend)
        assert np.array_equal(
            codec.decompress(codec.compress(sequential_addresses)), sequential_addresses
        )

    @pytest.mark.parametrize("length", [999, 1_000, 1_001, 2_000])
    def test_roundtrip_lengths_around_the_buffer_size(self, random_addresses, length):
        """Full, partial and single-address tail buffers all invert exactly."""
        codec = LosslessCodec(buffer_addresses=1_000, backend="zlib")
        chunk = random_addresses[:length]
        assert np.array_equal(codec.decompress(codec.compress(chunk)), chunk)

    def test_roundtrip_extreme_values(self):
        chunk = np.array([0, (1 << 64) - 1, 1, (1 << 63), (1 << 64) - 2, 0], dtype=np.uint64)
        codec = LosslessCodec(buffer_addresses=4, backend="zlib")
        assert np.array_equal(codec.decompress(codec.compress(chunk)), chunk)

    def test_backend_alias_writes_the_canonical_payload(self, sequential_addresses):
        gz = LosslessCodec(buffer_addresses=5_000, backend="gz").compress(sequential_addresses)
        zlib = LosslessCodec(buffer_addresses=5_000, backend="zlib").compress(sequential_addresses)
        assert gz == zlib

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=300))
    def test_roundtrip_property(self, values):
        array = np.array(values, dtype=np.uint64)
        codec = LosslessCodec(buffer_addresses=64, backend="zlib")
        assert np.array_equal(codec.decompress(codec.compress(array)), array)


class TestLosslessCompressionQuality:
    def test_regular_trace_compresses_well(self, sequential_addresses, lossless_bpa):
        bpa = lossless_bpa(sequential_addresses, buffer_addresses=10_000)
        assert bpa < 2.0  # 64 bits down to under 2 bits per address

    def test_bytesort_beats_plain_bzip2_on_filtered_trace(self, filtered_trace, lossless_bpa):
        """The core Table 1 claim: bytesort+bzip2 beats bzip2 alone."""
        addresses = filtered_trace.addresses
        bytesort_bpa = lossless_bpa(addresses, buffer_addresses=len(addresses))
        plain_bpa = raw_bits_per_address(addresses)
        assert bytesort_bpa < plain_bpa

    def test_bigger_buffer_never_much_worse(self, working_set_addresses, lossless_bpa):
        """Section 4.1: a bigger buffer exposes more regularity."""
        small = lossless_bpa(working_set_addresses, buffer_addresses=2_000)
        big = lossless_bpa(working_set_addresses, buffer_addresses=60_000)
        assert big <= small * 1.10  # allow small noise, but the trend must hold

    def test_bits_per_address_of_empty_trace(self, lossless_bpa):
        assert lossless_bpa(np.empty(0, dtype=np.uint64), buffer_addresses=1_000) == 0.0


class TestLosslessErrors:
    def test_invalid_buffer_size(self):
        with pytest.raises(CodecError):
            LosslessCodec(buffer_addresses=0)

    def test_truncated_stream(self):
        with pytest.raises(CodecError):
            LosslessCodec().decompress(b"shrt")

    def test_bad_magic(self, sequential_addresses):
        payload = bytearray(LosslessCodec().compress(sequential_addresses))
        payload[:4] = b"XXXX"
        with pytest.raises(CodecError):
            LosslessCodec().decompress(bytes(payload))

    def test_corrupt_body_detected(self, sequential_addresses):
        payload = LosslessCodec(buffer_addresses=1_000).compress(sequential_addresses)
        corrupted = payload[:-10]
        with pytest.raises(Exception):
            LosslessCodec().decompress(corrupted)

    def test_header_count_bounds_decompression(self):
        bomb = struct.pack("<4sB Q Q", b"ATCL", 1, 1, 1_000_000) + bz2.compress(bytes(16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="more than 8 bytes"):
                LosslessCodec().decompress(bomb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_payload_still_reports_the_count(self, sequential_addresses):
        payload = bytearray(LosslessCodec(backend="store").compress(sequential_addresses))
        payload[5:13] = struct.pack("<Q", sequential_addresses.size + 1)
        with pytest.raises(CodecError, match="expected"):
            LosslessCodec(backend="store").decompress(bytes(payload))

    def test_expected_count_is_checked_before_decompressing(self, sequential_addresses):
        calls = []

        def decompress(data):
            calls.append(len(data))
            return bz2.decompress(data)

        backend = CompressionBackend("counted", lambda data: bz2.compress(data), decompress)
        codec = LosslessCodec(backend=backend)
        payload = codec.compress(sequential_addresses)
        with pytest.raises(CodecError, match="interval record"):
            codec.decompress(payload, expected_count=sequential_addresses.size - 1)
        assert calls == []
        decoded = codec.decompress(payload, expected_count=sequential_addresses.size)
        assert np.array_equal(decoded, sequential_addresses) and len(calls) == 1
