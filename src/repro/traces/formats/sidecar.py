"""The ATC command/cycle sidecar: ``SIDECAR.bz2`` inside a container.

The ATC container stores bare 64-bit values (paper, Section 2), so a
conversion from a format with command and cycle columns (k6, mase) would
lose them.  ``repro convert`` therefore writes a *sidecar* file next to the
chunk files, streamed in lock-step with the encoder so conversions stay
flat-memory.  Containers without a sidecar (made by ``bin2atc``) export
with synthesized defaults instead.

On-disk layout (byte-level; also documented in ``docs/trace-formats.md``):
the file ``SIDECAR.bz2`` is a bz2 stream — always bz2, independent of the
container backend, so the reader needs no metadata — whose decompressed
bytes are the 8-byte magic ``ATCSIDE1`` followed by zero or more frames:

====================  =========================================================
``u32 count``         little-endian record count of the frame (>= 1)
``count  u8 kinds``   record-kind codes (0 read, 1 write, 2 ifetch)
``count u64 deltas``  little-endian cycle deltas, modulo 2**64
====================  =========================================================

Cycle reconstruction: the running cycle starts at 0 and each record's cycle
is ``previous + delta (mod 2**64)``, carried *across* frames.  Deltas in
two's-complement modulo arithmetic make the encoding exact for any
``uint64`` cycle sequence, including non-monotonic ones.  The total record
count over all frames equals the container's ``original_length``.

The filename is safe by construction: container chunk enumeration matches
``^(\\d+)\\.<suffix>$`` and metadata lives in ``INFO.*``, so ``SIDECAR.bz2``
is invisible to the decoder while still counting toward
``total_bytes()`` — sidecar bytes honestly inflate bits-per-address.
"""

from __future__ import annotations

import bz2
import os
import struct
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import TraceFormatError
from repro.traces.formats.base import KIND_IFETCH

__all__ = [
    "SIDECAR_MAGIC",
    "SIDECAR_BASENAME",
    "SidecarWriter",
    "SidecarReader",
    "SyntheticSidecar",
    "sidecar_path",
    "has_sidecar",
]

#: Magic bytes opening the decompressed sidecar stream.
SIDECAR_MAGIC = b"ATCSIDE1"

#: Filename of the sidecar inside a container directory.
SIDECAR_BASENAME = "SIDECAR.bz2"

_COUNT = struct.Struct("<I")
_U64 = np.dtype("<u8")

_READ_PIECE_BYTES = 1 << 20


def sidecar_path(directory) -> Path:
    """Path of the (possibly absent) sidecar of a container directory."""
    return Path(os.fspath(directory)) / SIDECAR_BASENAME


def has_sidecar(directory) -> bool:
    """True when the container directory carries a command/cycle sidecar."""
    return sidecar_path(directory).is_file()


class SidecarWriter:
    """Streaming sidecar writer: one frame per appended record chunk.

    Append order must match the address order fed to the encoder; the
    converter guarantees that by teeing both from the same record chunks.

    Example:
        >>> import tempfile, numpy as np, os
        >>> path = os.path.join(tempfile.mkdtemp(), "SIDECAR.bz2")
        >>> with SidecarWriter(path) as writer:
        ...     writer.append(np.zeros(2, np.uint8), np.array([5, 9], np.uint64))
        >>> with SidecarReader(path) as reader:
        ...     kinds, cycles = reader.take(2)
        >>> cycles.tolist()
        [5, 9]
    """

    def __init__(self, path) -> None:
        # compresslevel selects the bz2 block size (N x 100 kB) and with it
        # the compressor's ~8 x block fixed memory; the kind/delta stream is
        # so repetitive that level 1 compresses it essentially as well as
        # level 9 while keeping the converter's footprint ~1 MB, not ~8 MB.
        self._handle = bz2.BZ2File(os.fspath(path), "wb", compresslevel=1)
        self._handle.write(SIDECAR_MAGIC)
        self._last_cycle = np.uint64(0)
        self.records_written = 0

    def append(self, kinds: np.ndarray, cycles: np.ndarray) -> None:
        """Write one frame for a chunk of parallel kind/cycle arrays."""
        kinds = np.ascontiguousarray(kinds, dtype=np.uint8)
        cycles = np.ascontiguousarray(cycles, dtype=_U64)
        if kinds.shape != cycles.shape:
            raise TraceFormatError("sidecar kinds and cycles must have equal length")
        if kinds.size == 0:
            return
        if int(kinds.max()) > KIND_IFETCH:
            raise TraceFormatError("sidecar kinds must be 0..2")
        previous = np.empty_like(cycles)
        previous[0] = self._last_cycle
        previous[1:] = cycles[:-1]
        deltas = cycles - previous  # uint64 arithmetic wraps mod 2**64
        self._handle.write(_COUNT.pack(kinds.size))
        self._handle.write(kinds.tobytes())
        self._handle.write(deltas.tobytes())
        self._last_cycle = np.uint64(cycles[-1])
        self.records_written += int(kinds.size)

    def close(self) -> None:
        """Flush and close the compressed stream."""
        self._handle.close()

    def __enter__(self) -> "SidecarWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SidecarReader:
    """Streaming sidecar reader with re-chunking (:meth:`take`).

    Frames are read lazily and re-split to whatever chunk boundaries the
    exporting decoder produces, so the export path never materialises the
    whole kind/cycle stream.
    """

    def __init__(self, path) -> None:
        self._handle = bz2.BZ2File(os.fspath(path), "rb")
        try:
            magic = self._read(len(SIDECAR_MAGIC))
            if magic != SIDECAR_MAGIC:
                raise TraceFormatError(
                    f"bad sidecar magic {magic!r} (expected {SIDECAR_MAGIC!r})"
                )
        except BaseException:
            self._handle.close()
            raise
        self._last_cycle = np.uint64(0)
        self._kinds = np.empty(0, dtype=np.uint8)
        self._cycles = np.empty(0, dtype=_U64)

    def _read(self, size: int) -> bytes:
        """Read up to ``size`` decompressed bytes (at most 1 MiB: frame counts
        are untrusted, and a buffer sized from a damaged one could be
        gigabytes); bz2 damage is a format error."""
        try:
            return self._handle.read(min(size, _READ_PIECE_BYTES))
        except (OSError, EOFError) as error:
            raise TraceFormatError(f"sidecar is not a valid bz2 stream: {error}") from None

    def _read_exact(self, size: int) -> Optional[bytes]:
        """Read exactly ``size`` bytes, ``None`` at a clean end-of-stream."""
        payload = self._read(size)
        if not payload:
            return None
        while len(payload) < size:
            more = self._read(size - len(payload))
            if not more:
                raise TraceFormatError("sidecar stream is truncated mid-frame")
            payload += more
        return payload

    def _load_frame(self) -> bool:
        """Decode the next frame into the buffer; False at end-of-stream."""
        header = self._read_exact(_COUNT.size)
        if header is None:
            return False
        (count,) = _COUNT.unpack(header)
        if count == 0:
            raise TraceFormatError("sidecar frames must hold at least one record")
        body = self._read_exact(count + 8 * count)
        if body is None:
            raise TraceFormatError("sidecar stream is truncated mid-frame")
        kinds = np.frombuffer(body, dtype=np.uint8, count=count)
        deltas = np.frombuffer(body, dtype=_U64, count=count, offset=count)
        cycles = np.cumsum(deltas, dtype=np.uint64) + self._last_cycle
        self._last_cycle = np.uint64(cycles[-1])
        self._kinds = np.concatenate([self._kinds, kinds])
        self._cycles = np.concatenate([self._cycles, cycles])
        return True

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next ``count`` (kinds, cycles) records.

        Raises:
            TraceFormatError: If the sidecar holds fewer records than the
                container (the streams must describe the same trace).
        """
        while self._kinds.size < count:
            if not self._load_frame():
                raise TraceFormatError(
                    "sidecar ends before the container's address stream"
                )
        kinds = self._kinds[:count]
        cycles = self._cycles[:count]
        self._kinds = self._kinds[count:]
        self._cycles = self._cycles[count:]
        return kinds, cycles

    def verify_exhausted(self) -> None:
        """Raise unless every sidecar record was consumed."""
        if self._kinds.size or self._load_frame():
            raise TraceFormatError("sidecar holds more records than the container")

    def iter_all(self, chunk_records: int = 65536) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield every remaining record in bounded chunks (test convenience)."""
        while True:
            if self._kinds.size == 0 and not self._load_frame():
                return
            take = min(int(self._kinds.size), int(chunk_records))
            yield self.take(take)

    def close(self) -> None:
        """Close the compressed stream."""
        self._handle.close()

    def __enter__(self) -> "SidecarReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SyntheticSidecar:
    """Drop-in ``take``/``verify_exhausted`` for containers without a sidecar.

    Kinds default to ``read`` and cycles to ``record_ordinal * cycle_gap``
    (the documented defaults of the export path).

    Example:
        >>> kinds, cycles = SyntheticSidecar(cycle_gap=10).take(3)
        >>> cycles.tolist()
        [0, 10, 20]
    """

    def __init__(self, cycle_gap: int = 1) -> None:
        if cycle_gap <= 0:
            raise TraceFormatError("cycle_gap must be positive")
        self._gap = np.uint64(cycle_gap)
        self._next = np.uint64(0)

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``count`` synthesized (kinds, cycles) records."""
        kinds = np.zeros(count, dtype=np.uint8)
        cycles = (self._next + np.arange(count, dtype=np.uint64) * self._gap).astype(_U64)
        if count:
            self._next = np.uint64(cycles[-1] + self._gap)
        return kinds, cycles

    def verify_exhausted(self) -> None:
        """Synthetic streams are endless; nothing to verify."""

    def close(self) -> None:
        """Nothing to close."""
