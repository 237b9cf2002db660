"""Lossless ATC compression: bytesort + byte-level entropy coder.

This codec is the in-memory form of the paper's lossless mode: the trace is
bytesorted with a finite buffer of ``B`` addresses (Section 4.1) and the
transformed byte stream is handed to a byte-level compressor (bzip2 by
default).  The payload carries a small self-describing header so that the
decompressor recovers the buffer size and address count without a side
channel.

The two buffer sizes evaluated in Table 1 — 1 M addresses ("small
bytesort", ``bs1``) and 10 M addresses ("big bytesort", ``bs10``) — are just
two values of ``buffer_addresses``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.backend import get_backend
from repro.core.bytesort import bytesort_inverse, bytesort_transform
from repro.errors import CodecError
from repro.traces.trace import as_address_array

__all__ = ["LosslessCodec", "lossless_compress", "lossless_decompress", "lossless_bits_per_address"]

_MAGIC = b"ATCL"
_HEADER = struct.Struct("<4sB Q Q")  # magic, version, address count, buffer size


@dataclass(frozen=True)
class LosslessCodec:
    """Bytesort-based lossless codec.

    Attributes:
        buffer_addresses: Bytesort buffer size ``B`` in addresses.
        backend: Name or instance of the byte-level compression back-end.
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

    def compress_many(self, intervals, workers: int = 1) -> list:
        """Compress several address sequences, preserving input order.

        The bulk entry point of the parallel chunk pipeline: with
        ``workers > 1`` the intervals are compressed concurrently on threads
        (the stdlib byte-level codecs release the GIL).  ``intervals`` may
        be any iterable, including a lazy
        generator: it is consumed through a bounded submission window
        (``2 * workers`` tasks in flight), never materialised up front, so
        the streaming pipeline's bounded-memory guarantee holds for
        arbitrarily long interval streams.  The result is byte-identical
        to ``[self.compress(i) for i in intervals]`` for every worker count.
        """
        from repro.core.parallel import imap_ordered

        return list(imap_ordered(self.compress, intervals, workers=workers))

    def decompress_many(self, payloads, workers: int = 1) -> list:
        """Decompress several payloads, preserving input order (see above)."""
        from repro.core.parallel import imap_ordered

        return list(imap_ordered(self.decompress, payloads, workers=workers))

    def decompress(self, payload: bytes) -> np.ndarray:
        """Invert :meth:`compress`."""
        if len(payload) < _HEADER.size:
            raise CodecError("truncated lossless ATC stream: missing header")
        magic, version, count, buffer_addresses = _HEADER.unpack(payload[: _HEADER.size])
        if magic != _MAGIC:
            raise CodecError("not a lossless ATC stream (bad magic)")
        if version != 1:
            raise CodecError(f"unsupported lossless ATC stream version {version}")
        transformed = get_backend(self.backend).decompress(payload[_HEADER.size :])
        values = bytesort_inverse(transformed, int(buffer_addresses))
        if int(values.size) != count:
            raise CodecError(
                f"lossless ATC stream is corrupt: expected {count} addresses, got {values.size}"
            )
        return values

    def bits_per_address(self, addresses) -> float:
        """Compressed size in bits divided by the number of addresses."""
        values = as_address_array(addresses)
        if values.size == 0:
            return 0.0
        return 8.0 * len(self.compress(values)) / values.size


def lossless_compress(addresses, buffer_addresses: int = 1_000_000, backend="bz2") -> bytes:
    """One-shot lossless ATC compression.

    Example:
        >>> import numpy as np
        >>> trace = np.arange(5000, dtype=np.uint64) % 700
        >>> payload = lossless_compress(trace, buffer_addresses=1000)
        >>> len(payload) < trace.nbytes
        True
        >>> bool(np.array_equal(lossless_decompress(payload), trace))
        True
    """
    return LosslessCodec(buffer_addresses, backend).compress(addresses)


def lossless_decompress(payload: bytes, backend="bz2") -> np.ndarray:
    """One-shot lossless ATC decompression (buffer size read from the header).

    See :func:`lossless_compress` for a round-trip example.
    """
    return LosslessCodec(backend=backend).decompress(payload)


def lossless_bits_per_address(addresses, buffer_addresses: int = 1_000_000, backend="bz2") -> float:
    """Bits per address of the bytesort/bzip2 lossless compressor."""
    return LosslessCodec(buffer_addresses, backend).bits_per_address(addresses)
