"""The chunk-payload codec: bytesort + byte-level entropy coder.

Every chunk of an ATC container is one payload of this codec: the chunk's
addresses are bytesorted with a finite buffer of ``B`` addresses (Section
4.1) and the transformed byte stream is handed to a byte-level compressor
(bzip2 by default).  The payload carries a small self-describing header so
that the decompressor recovers the buffer size and address count without a
side channel.  :class:`~repro.core.atc.AtcEncoder` writes these payloads,
:class:`~repro.core.atc.AtcDecoder` and :mod:`repro.core.fsck` read them.

The header's address count also bounds decompression: the back-end may not
inflate the payload past ``8 * count`` bytes, so a tiny payload cannot
expand into gigabytes before the size check.

The two buffer sizes evaluated in Table 1 — 1 M addresses ("small
bytesort", ``bs1``) and 10 M addresses ("big bytesort", ``bs10``) — are just
two values of the container's ``chunk_buffer_addresses``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.backend import get_backend
from repro.core.bytesort import bytesort_inverse, bytesort_transform
from repro.errors import CodecError
from repro.traces.trace import ADDRESS_BYTES, as_address_array

__all__ = ["LosslessCodec"]

_MAGIC = b"ATCL"
_HEADER = struct.Struct("<4sB Q Q")  # magic, version, address count, buffer size


@dataclass(frozen=True)
class LosslessCodec:
    """Bytesort-based lossless codec for one chunk payload.

    Attributes:
        buffer_addresses: Bytesort buffer size ``B`` in addresses.
        backend: Name or instance of the byte-level compression back-end.

    Example:
        >>> import numpy as np
        >>> codec = LosslessCodec(buffer_addresses=1000)
        >>> chunk = np.arange(5000, dtype=np.uint64) % 700
        >>> payload = codec.compress(chunk)
        >>> len(payload) < chunk.nbytes
        True
        >>> bool(np.array_equal(codec.decompress(payload), chunk))
        True
    """

    buffer_addresses: int = 1_000_000
    backend: object = "bz2"

    def __post_init__(self) -> None:
        if self.buffer_addresses <= 0:
            raise CodecError("buffer_addresses must be positive")
        # Resolve eagerly so configuration errors surface at construction.
        get_backend(self.backend)

    def compress(self, addresses) -> bytes:
        """Compress an address sequence into a self-describing byte string."""
        values = as_address_array(addresses)
        transformed = bytesort_transform(values, self.buffer_addresses)
        payload = get_backend(self.backend).compress(transformed)
        header = _HEADER.pack(_MAGIC, 1, int(values.size), int(self.buffer_addresses))
        return header + payload

    @staticmethod
    def read_header(payload: bytes, expected_count: Optional[int] = None) -> Tuple[int, int]:
        """Check a payload's header; returns its ``(count, buffer_addresses)``.

        With ``expected_count`` (what the container's interval records say
        the chunk holds) a header declaring another count raises
        :class:`CodecError`.  Reads only the header, so it costs nothing.
        """
        if len(payload) < _HEADER.size:
            raise CodecError("truncated lossless ATC stream: missing header")
        magic, version, count, buffer_addresses = _HEADER.unpack(payload[: _HEADER.size])
        if magic != _MAGIC:
            raise CodecError("not a lossless ATC stream (bad magic)")
        if version != 1:
            raise CodecError(f"unsupported lossless ATC stream version {version}")
        if expected_count is not None and count != expected_count:
            raise CodecError(
                f"lossless ATC stream header declares {count} addresses "
                f"but its interval record holds {expected_count}"
            )
        return count, buffer_addresses

    def decompress(self, payload: bytes, expected_count: Optional[int] = None) -> np.ndarray:
        """Invert :meth:`compress`.

        The header is checked first (:meth:`read_header`), so a count that
        disagrees with ``expected_count`` fails before anything is
        decompressed.  The back-end may then produce at most ``8 * count``
        bytes; an overrun raises :class:`CodecError` before the inverse
        bytesort runs.
        """
        count, buffer_addresses = self.read_header(payload, expected_count)
        transformed = get_backend(self.backend).decompress_at_most(
            payload[_HEADER.size :], ADDRESS_BYTES * count
        )
        values = bytesort_inverse(transformed, int(buffer_addresses))
        if int(values.size) != count:
            raise CodecError(
                f"lossless ATC stream is corrupt: expected {count} addresses, got {values.size}"
            )
        return values
