"""Tests of record tagging in the spare high bits of block addresses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.traces.records import RecordKind, TAG_SHIFT, tag_addresses, untag_addresses


class TestTagging:
    def test_roundtrip_scalar_kind(self):
        blocks = np.arange(100, dtype=np.uint64)
        tagged = tag_addresses(blocks, RecordKind.WRITE_BACK)
        untagged, kinds = untag_addresses(tagged)
        assert np.array_equal(untagged, blocks)
        assert np.all(kinds == int(RecordKind.WRITE_BACK))

    def test_roundtrip_per_record_kinds(self):
        blocks = np.array([1, 2, 3], dtype=np.uint64)
        kinds = [RecordKind.DEMAND_MISS, RecordKind.WRITE_BACK, RecordKind.PREFETCH]
        untagged, recovered = untag_addresses(tag_addresses(blocks, kinds))
        assert np.array_equal(untagged, blocks)
        assert recovered.tolist() == [0, 1, 2]

    def test_tagged_addresses_differ_from_raw(self):
        blocks = np.array([42], dtype=np.uint64)
        tagged = tag_addresses(blocks, RecordKind.WRITE_BACK)
        assert tagged[0] == (42 | (1 << TAG_SHIFT))

    def test_demand_miss_tag_is_zero(self):
        blocks = np.array([7], dtype=np.uint64)
        assert tag_addresses(blocks, RecordKind.DEMAND_MISS)[0] == 7

    def test_rejects_addresses_already_using_tag_bits(self):
        with pytest.raises(TraceFormatError):
            tag_addresses(np.array([1 << 60], dtype=np.uint64), RecordKind.DEMAND_MISS)

    def test_rejects_mismatched_kind_count(self):
        with pytest.raises(TraceFormatError):
            tag_addresses(np.array([1, 2], dtype=np.uint64), [RecordKind.DEMAND_MISS])

    def test_rejects_oversized_kind(self):
        with pytest.raises(TraceFormatError):
            tag_addresses(np.array([1], dtype=np.uint64), [64])

    def test_tags_survive_bytesort_compression(self):
        """The paper's point: spare bits can carry info through compression."""
        from repro.core.lossless import LosslessCodec

        blocks = np.arange(5_000, dtype=np.uint64)
        kinds = np.where(blocks % 3 == 0, int(RecordKind.WRITE_BACK), int(RecordKind.DEMAND_MISS))
        tagged = tag_addresses(blocks, kinds.tolist())
        codec = LosslessCodec(buffer_addresses=1_000)
        recovered = codec.decompress(codec.compress(tagged))
        untagged, recovered_kinds = untag_addresses(recovered)
        assert np.array_equal(untagged, blocks)
        assert np.array_equal(recovered_kinds.astype(np.int64), kinds)
