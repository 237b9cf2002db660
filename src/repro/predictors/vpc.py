"""VPC/TCgen-style predictor-based lossless trace compressor (baseline).

The paper compares bytesort against "a VPC-like compressor/decompressor
generated with TCgen" configured as ``DFCM3[2], FCM3[3], FCM2[3], FCM1[3]``
with bzip2 as the second-stage compressor (Section 4.2).  This module
implements exactly that comparator from scratch:

* The four value predictors (see :mod:`repro.predictors.value`) run in
  lock step in the compressor and the decompressor (Shannon's 1951 paired
  predictor construction, which the VPC papers build on).
* For each 64-bit address, the compressor checks the flattened list of
  predictor candidates: if one matches, it emits a single *code byte* (the
  index of the matching candidate); otherwise it emits an escape code byte
  and appends the 8 literal bytes of the address to a second stream.
* Both streams are compressed with bzip2, mirroring TCgen's two-stage
  design.

The stream header holds the magic, the predictor bank in TCgen notation,
the record count and the two stream lengths.  The decoder refuses a stream
that names any other bank.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from repro.core.backend import get_backend
from repro.errors import CodecError
from repro.predictors.value import DifferentialFiniteContextPredictor, FiniteContextPredictor
from repro.traces.trace import as_address_array

__all__ = ["VpcCodec", "VpcStats"]

_MAGIC = b"VPCR"
_ESCAPE = 0xFF
_HEADER = struct.Struct("<4sB B Q I I")  # magic, version, len(specs), count, len(codes), len(literals)

_Predictor = Union[DifferentialFiniteContextPredictor, FiniteContextPredictor]


def _tcgen_bank() -> List[_Predictor]:
    """The paper's TCgen bank: ``DFCM3[2], FCM3[3], FCM2[3], FCM1[3]``."""
    return [
        DifferentialFiniteContextPredictor(order=3, depth=2),
        FiniteContextPredictor(order=3, depth=3),
        FiniteContextPredictor(order=2, depth=3),
        FiniteContextPredictor(order=1, depth=3),
    ]


#: The bank of :func:`_tcgen_bank` as the stream header names it.
_SPEC_BLOB = b"DFCM3[2];FCM3[3];FCM2[3];FCM1[3]"


@dataclass
class VpcStats:
    """Prediction statistics gathered while compressing."""

    total: int = 0
    predicted: int = 0
    escaped: int = 0

    @property
    def prediction_rate(self) -> float:
        """Fraction of addresses coded as a predictor hit."""
        return self.predicted / self.total if self.total else 0.0


def _candidates(bank: List[_Predictor]) -> List[int]:
    flattened: List[int] = []
    for predictor in bank:
        flattened.extend(predictor.predictions())
    return flattened


class VpcCodec:
    """The TCgen-style comparator of Table 1, for 64-bit address traces.

    Example:
        >>> codec = VpcCodec()
        >>> payload = codec.compress([8, 16, 24, 32, 40, 48])
        >>> codec.decompress(payload).tolist()
        [8, 16, 24, 32, 40, 48]
    """

    def __init__(self) -> None:
        self.stats = VpcStats()

    # -- compression -------------------------------------------------------------------
    def compress(self, addresses) -> bytes:
        """Compress an address sequence into a self-describing byte string."""
        values = as_address_array(addresses)
        bank = _tcgen_bank()
        codes = bytearray()
        literals = bytearray()
        self.stats = VpcStats()
        for value in values.tolist():
            candidates = _candidates(bank)
            try:
                code = candidates.index(value)
            except ValueError:
                code = -1
            self.stats.total += 1
            if code >= 0:
                codes.append(code)
                self.stats.predicted += 1
            else:
                codes.append(_ESCAPE)
                literals.extend(struct.pack("<Q", value))
                self.stats.escaped += 1
            for predictor in bank:
                predictor.update(value)
        backend = get_backend("bz2")
        packed_codes = backend.compress(bytes(codes))
        packed_literals = backend.compress(bytes(literals))
        header = _HEADER.pack(
            _MAGIC, 1, len(_SPEC_BLOB), int(values.size), len(packed_codes), len(packed_literals)
        )
        return header + _SPEC_BLOB + packed_codes + packed_literals

    # -- decompression -------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a byte string produced by :meth:`compress`.

        Decoding is bounded by the header's record count: the codes stream
        may inflate to at most ``count`` bytes, and the literals to exactly
        8 bytes per escape code.  The count itself is the stream's word, so
        it bounds the work only as far as the header can be trusted.
        """
        if len(payload) < _HEADER.size:
            raise CodecError("truncated VPC stream: missing header")
        magic, version, spec_length, count, codes_length, literals_length = _HEADER.unpack(
            payload[: _HEADER.size]
        )
        if magic != _MAGIC:
            raise CodecError("not a VPC-compressed stream (bad magic)")
        if version != 1:
            raise CodecError(f"unsupported VPC stream version {version}")
        offset = _HEADER.size
        spec_blob = payload[offset : offset + spec_length]
        if spec_blob != _SPEC_BLOB:
            raise CodecError(
                f"VPC stream names predictor bank {spec_blob[:64]!r}; only "
                f"{_SPEC_BLOB.decode()} is supported"
            )
        offset += spec_length
        if len(payload) != offset + codes_length + literals_length:
            raise CodecError("VPC stream is corrupt: its length disagrees with its header")
        backend = get_backend("bz2")
        codes = backend.decompress_at_most(payload[offset : offset + codes_length], count)
        if len(codes) != count:
            raise CodecError("VPC stream is corrupt: code count mismatch")
        literal_bytes = 8 * codes.count(_ESCAPE)
        literals = backend.decompress_at_most(payload[offset + codes_length :], literal_bytes)
        if len(literals) != literal_bytes:
            raise CodecError("VPC stream is corrupt: literal bytes disagree with the escape codes")
        bank = _tcgen_bank()
        values = np.empty(count, dtype=np.uint64)
        literal_offset = 0
        for index, code in enumerate(codes):
            if code == _ESCAPE:
                (value,) = struct.unpack_from("<Q", literals, literal_offset)
                literal_offset += 8
            else:
                candidates = _candidates(bank)
                if code >= len(candidates):
                    raise CodecError("VPC stream is corrupt: predictor code out of range")
                value = candidates[code]
            values[index] = value
            for predictor in bank:
                predictor.update(value)
        return values
