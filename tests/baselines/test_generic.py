"""Tests of the bzip2/gzip-alone baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.generic import compress_raw, decompress_raw, raw_bits_per_address
from repro.errors import CodecError


class TestGenericBaseline:
    def test_roundtrip(self, random_addresses):
        payload = compress_raw(random_addresses)
        assert np.array_equal(decompress_raw(payload), random_addresses)

    @pytest.mark.parametrize("backend", ["bz2", "zlib", "lzma"])
    def test_roundtrip_other_backends(self, sequential_addresses, backend):
        payload = compress_raw(sequential_addresses, backend=backend)
        assert np.array_equal(decompress_raw(payload, backend=backend), sequential_addresses)

    def test_bits_per_address_regular_trace(self, sequential_addresses):
        assert raw_bits_per_address(sequential_addresses) < 16.0

    def test_bits_per_address_random_trace_is_high(self, random_addresses):
        # 58 random bits per address cannot be compressed much below 58 bits.
        assert raw_bits_per_address(random_addresses) > 40.0

    def test_empty_trace(self):
        assert raw_bits_per_address(np.empty(0, dtype=np.uint64)) == 0.0

    def test_roundtrip_extremes(self):
        values = np.array([0, (1 << 64) - 1, 0, 1 << 63], dtype=np.uint64)
        assert np.array_equal(decompress_raw(compress_raw(values)), values)

    def test_empty_roundtrip(self):
        assert decompress_raw(compress_raw(np.empty(0, dtype=np.uint64))).size == 0

    @pytest.mark.parametrize("backend", ["bz2", "zlib", "lzma"])
    def test_corrupt_payload_rejected(self, backend):
        with pytest.raises(CodecError):
            decompress_raw(b"not a compressed stream", backend=backend)
