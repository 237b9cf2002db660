"""Tests of the VPC/TCgen-style baseline compressor."""

from __future__ import annotations

import bz2
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.predictors.value import DifferentialFiniteContextPredictor
from repro.predictors.vpc import _HEADER, _SPEC_BLOB, VpcCodec, _tcgen_bank
from repro.traces.filter import filter_spec_like_traces

#: SHA-256 of ``VpcCodec().compress`` on ``filter_spec_like_traces([name],
#: refs, seed=0)``: the Table 1 tcg column's bytes, pinned so a faster
#: predictor path cannot move them.
VPC_PAYLOAD_SHA256 = {
    ("403.gcc", 30_000): "2b96ec6a1537ca3ed8265c5315eb66b429af58d22e77d95e1b650e53cf4f27d9",
    ("429.mcf", 30_000): "820bb0df5e819d49e13336398fe214881097177b712898034a7514fd140c2264",
    ("433.milc", 30_000): "296675d8e112c11dc4bb161f44fc4267c2b594d9ec86ade04c2769786a28dfec",
    ("429.mcf", 300_000): "98fb1c75588aeeaf32b30e7a4187cec7aefe250b1ea4ad353f88f205f90fd782",
}

#: ``bz2.compress(bytes(160 MiB))``: 144 bytes that inflate to 160 MiB.
_BZ2_BOMB = bytes.fromhex(
    "425a68393141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "3141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "3141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "314159265359b877ec2c00e659c000c1000008200030cc09aa698a25146d5489451e2ee48a70a121d819682c"
)


def _stream(count: int, codes: bytes, literals: bytes, specs: bytes = _SPEC_BLOB) -> bytes:
    """A VPCR stream with the given header fields and bz2-compressed streams."""
    packed_codes, packed_literals = bz2.compress(codes), bz2.compress(literals)
    header = _HEADER.pack(b"VPCR", 1, len(specs), count, len(packed_codes), len(packed_literals))
    return header + specs + packed_codes + packed_literals


@pytest.mark.parametrize(
    "name, refs",
    [
        pytest.param(name, refs, marks=[pytest.mark.slow] if refs > 30_000 else [])
        for name, refs in VPC_PAYLOAD_SHA256
    ],
)
def test_tcg_payloads_at_benchmark_scale(name, refs):
    addresses = filter_spec_like_traces([name], refs, seed=0)[name].addresses
    payload = VpcCodec().compress(addresses)
    assert hashlib.sha256(payload).hexdigest() == VPC_PAYLOAD_SHA256[name, refs]


class TestVpcRoundtrip:
    def test_roundtrip_sequential(self, sequential_addresses):
        codec = VpcCodec()
        payload = codec.compress(sequential_addresses[:5_000])
        assert np.array_equal(codec.decompress(payload), sequential_addresses[:5_000])

    def test_roundtrip_random(self, random_addresses):
        codec = VpcCodec()
        payload = codec.compress(random_addresses[:3_000])
        assert np.array_equal(codec.decompress(payload), random_addresses[:3_000])

    def test_roundtrip_working_set(self, working_set_addresses):
        codec = VpcCodec()
        payload = codec.compress(working_set_addresses[:5_000])
        assert np.array_equal(codec.decompress(payload), working_set_addresses[:5_000])

    def test_roundtrip_empty(self):
        codec = VpcCodec()
        assert codec.decompress(codec.compress([])).size == 0

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 7), st.integers(min_value=0, max_value=(1 << 64) - 1)),
            max_size=150,
        )
    )
    def test_roundtrip_property(self, values):
        codec = VpcCodec()
        array = np.array(values, dtype=np.uint64)
        assert np.array_equal(codec.decompress(codec.compress(array)), array)


class TestVpcCompressionBehaviour:
    def test_high_prediction_rate_on_strided_trace(self, sequential_addresses):
        codec = VpcCodec()
        codec.compress(sequential_addresses[:5_000])
        assert codec.stats.prediction_rate > 0.95

    def test_low_prediction_rate_on_random_trace(self, random_addresses):
        codec = VpcCodec()
        codec.compress(random_addresses[:3_000])
        assert codec.stats.prediction_rate < 0.2

    def test_regular_trace_compresses_well(self, sequential_addresses):
        payload = VpcCodec().compress(sequential_addresses[:5_000])
        bits_per_address = 8 * len(payload) / 5_000
        assert bits_per_address < 4.0

    def test_bank_is_the_papers_tcgen_spec(self):
        shapes = []
        for predictor in _tcgen_bank():
            if isinstance(predictor, DifferentialFiniteContextPredictor):
                shapes.append(("DFCM", predictor._deltas.order, predictor._deltas.depth))
            else:
                shapes.append(("FCM", predictor.order, predictor.depth))
        assert shapes == [("DFCM", 3, 2), ("FCM", 3, 3), ("FCM", 2, 3), ("FCM", 1, 3)]
        assert _SPEC_BLOB == b"DFCM3[2];FCM3[3];FCM2[3];FCM1[3]"


class TestVpcErrors:
    def test_truncated_stream(self):
        with pytest.raises(CodecError):
            VpcCodec().decompress(b"nope")

    def test_bad_magic(self, sequential_addresses):
        payload = bytearray(VpcCodec().compress(sequential_addresses[:100]))
        payload[:4] = b"ZZZZ"
        with pytest.raises(CodecError):
            VpcCodec().decompress(bytes(payload))

    def test_decoder_refuses_a_stream_naming_another_bank(self):
        # The header's bank must be the paper's: the decoder cannot build
        # any other (last-value/stride "LV;ST", a subset, or none).
        for specs in (b"LV;ST", b"FCM3[3];FCM2[3];FCM1[3]", b""):
            with pytest.raises(CodecError, match="predictor bank"):
                VpcCodec().decompress(_stream(2, bytes([0xFF, 0xFF]), bytes(16), specs))

    def test_the_helper_stream_decodes(self):
        # Two escapes teach FCM1 that 7 follows 7; code 0 then names it.
        stream = _stream(3, bytes([0xFF, 0xFF, 0]), struct.pack("<QQ", 7, 7))
        assert VpcCodec().decompress(stream).tolist() == [7, 7, 7]

    @pytest.mark.parametrize(
        "codes, literals",
        [
            (bytes([0xFF, 0xFF, 0]), struct.pack("<QQ", 7, 7) + b"x"),  # trailing literal bytes
            (bytes([0xFF, 0xFF, 0]), struct.pack("<QQQ", 7, 7, 8)),  # a literal no escape reads
            (bytes([0xFF, 0xFF, 0]), struct.pack("<Q", 7)),  # missing literal bytes
            (bytes([0xFF, 0xFF]), struct.pack("<QQ", 7, 7)),  # fewer codes than the count
            (bytes([0xFF, 0xFF, 0, 0]), struct.pack("<QQ", 7, 7)),  # more codes than the count
            (bytes([0xFF, 0xFF, 1]), struct.pack("<QQ", 7, 7)),  # code past the candidates
        ],
    )
    def test_streams_that_disagree_with_their_header_are_refused(self, codes, literals):
        with pytest.raises(CodecError):
            VpcCodec().decompress(_stream(3, codes, literals))

    def test_trailing_payload_bytes_are_refused(self, sequential_addresses):
        payload = VpcCodec().compress(sequential_addresses[:100])
        with pytest.raises(CodecError, match="length"):
            VpcCodec().decompress(payload + b"\0")
        with pytest.raises(CodecError, match="length"):
            VpcCodec().decompress(payload[:-1])

    @pytest.mark.parametrize("where", ["codes", "literals"])
    def test_a_bz2_bomb_is_refused_within_a_bounded_peak(self, where):
        specs = _SPEC_BLOB
        packed = {"codes": bz2.compress(bytes([0xFF] * 1_000)), "literals": bz2.compress(bytes(8_000))}
        packed[where] = _BZ2_BOMB
        header = _HEADER.pack(b"VPCR", 1, len(specs), 1_000, len(packed["codes"]), len(packed["literals"]))
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="more than"):
                VpcCodec().decompress(header + specs + packed["codes"] + packed["literals"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
