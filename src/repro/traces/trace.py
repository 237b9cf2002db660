"""Address trace container and raw 64-bit trace I/O.

The traces consumed by ATC have "the simplest format that an address trace
can have: they are just sequences of 64-bit values" (paper, Section 2).
This module provides:

* :class:`AddressTrace` — a thin, validated wrapper around a NumPy
  ``uint64`` array with helpers used throughout the library (byte views,
  interval slicing, distinct-address counting, working-set statistics).
* :func:`write_raw_trace` / :func:`read_raw_trace` — the little-endian
  on-disk representation (8 bytes per address) used by the CLI tools, the
  same layout as the paper's ``fread``/``fwrite`` of ``unsigned long long``.
* Helpers converting between byte addresses and cache-block addresses.

The paper works with 64-byte cache blocks, so block addresses have their six
most significant bits free; the cache filter leaves them zero, and the
codecs store any 64-bit value.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError

__all__ = [
    "ADDRESS_BYTES",
    "DEFAULT_BLOCK_BYTES",
    "DEFAULT_CHUNK_ADDRESSES",
    "check_chunk_addresses",
    "AddressTrace",
    "as_address_array",
    "distinct_count",
    "block_address",
    "byte_address",
    "read_raw_trace",
    "write_raw_trace",
    "iter_raw_addresses",
    "iter_raw_chunks",
]

#: Size in bytes of one trace record (a 64-bit address).
ADDRESS_BYTES = 8

#: Cache block size assumed throughout the paper (64-byte blocks).
DEFAULT_BLOCK_BYTES = 64

#: Default chunk size (in addresses) of the streaming pipeline stages:
#: 65536 addresses = 512 KB per chunk, small enough that a dozen in-flight
#: chunks stay cheap, large enough that per-chunk Python overhead is
#: negligible.  Defined here (the leaf module of the trace substrate) and
#: re-exported by :mod:`repro.core.stream` so every ``iter_*``/``*_stream``
#: API shares one constant.
DEFAULT_CHUNK_ADDRESSES = 65536

_UINT64 = np.dtype("<u8")


def check_chunk_addresses(chunk_addresses: int) -> int:
    """Validate a streaming chunk-size knob (must be a positive integer)."""
    chunk_addresses = int(chunk_addresses)
    if chunk_addresses <= 0:
        raise ConfigurationError(f"chunk_addresses must be positive, got {chunk_addresses}")
    return chunk_addresses


def as_address_array(addresses: Union[Sequence[int], np.ndarray, Iterable[int]]) -> np.ndarray:
    """Convert ``addresses`` to a contiguous little-endian ``uint64`` array.

    Accepts any iterable of non-negative integers below 2**64 as well as
    NumPy arrays of any integer dtype.  Negative values raise
    :class:`TraceFormatError` because a trace address is by definition an
    unsigned quantity.

    Example:
        >>> as_address_array([1, 2, 3]).dtype
        dtype('uint64')
    """
    if isinstance(addresses, np.ndarray):
        if addresses.dtype == _UINT64 and addresses.flags.c_contiguous:
            return addresses
        if np.issubdtype(addresses.dtype, np.signedinteger) and addresses.size and addresses.min() < 0:
            raise TraceFormatError("trace addresses must be non-negative")
        return np.ascontiguousarray(addresses, dtype=_UINT64)
    values = list(addresses)
    for value in values:
        if value < 0:
            raise TraceFormatError("trace addresses must be non-negative")
        if value >= 1 << 64:
            raise TraceFormatError("trace addresses must fit in 64 bits")
    return np.array(values, dtype=_UINT64)


def distinct_count(addresses) -> int:
    """Number of distinct values in ``addresses``, counted by one sort.

    NumPy's ``np.unique`` hashes since 2.3, which on a 1M-address trace
    takes 10 to 60 times as long as sorting and counting the value changes.

    Example:
        >>> distinct_count([7, 3, 7, 7, 1])
        3
    """
    ordered = np.sort(as_address_array(addresses))
    if ordered.size == 0:
        return 0
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def block_address(byte_addresses, block_bytes: int = DEFAULT_BLOCK_BYTES) -> np.ndarray:
    """Convert byte addresses to cache-block addresses (``addr // block``)."""
    array = as_address_array(byte_addresses)
    shift = int(block_bytes).bit_length() - 1
    if 1 << shift != block_bytes:
        raise TraceFormatError(f"block size must be a power of two, got {block_bytes}")
    return array >> np.uint64(shift)


def byte_address(block_addresses, block_bytes: int = DEFAULT_BLOCK_BYTES) -> np.ndarray:
    """Convert block addresses back to the byte address of the block start."""
    array = as_address_array(block_addresses)
    shift = int(block_bytes).bit_length() - 1
    if 1 << shift != block_bytes:
        raise TraceFormatError(f"block size must be a power of two, got {block_bytes}")
    return array << np.uint64(shift)


@dataclass(frozen=True)
class AddressTrace:
    """A finite sequence of 64-bit trace addresses.

    The class is a frozen value object: the underlying array is never
    mutated by library code, and helpers always return new arrays/traces.

    Attributes:
        addresses: The little-endian ``uint64`` address array.
        name: Optional label (benchmark name, workload id) used in reports.
    """

    addresses: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "addresses", as_address_array(self.addresses))

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return int(self.addresses.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(value) for value in self.addresses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return AddressTrace(self.addresses[index], name=self.name)
        return int(self.addresses[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AddressTrace):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self.addresses, other.addresses))

    def __hash__(self) -> int:  # pragma: no cover - value object convenience
        return hash((self.name, self.addresses.tobytes()))

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_iterable(cls, addresses: Iterable[int], name: str = "") -> "AddressTrace":
        """Build a trace from any iterable of integer addresses."""
        return cls(as_address_array(addresses), name=name)

    @classmethod
    def empty(cls, name: str = "") -> "AddressTrace":
        """Return an empty trace (length zero)."""
        return cls(np.empty(0, dtype=_UINT64), name=name)

    # -- views ----------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise the trace as little-endian 8-byte records."""
        return self.addresses.astype(_UINT64, copy=False).tobytes()

    def byte_columns(self) -> np.ndarray:
        """Return the ``(len, 8)`` array of the bytes of each address.

        Column ``j`` holds byte of order ``j`` (``j = 0`` is the least
        significant byte), matching the paper's ``b[j](k)`` notation.
        """
        return self.addresses.view(np.uint8).reshape(len(self), ADDRESS_BYTES)

    def intervals(self, length: int) -> Iterator["AddressTrace"]:
        """Yield consecutive sub-traces of ``length`` addresses.

        The final interval may be shorter when the trace length is not a
        multiple of ``length`` (the lossy codec handles that tail as its own
        interval, exactly like the streaming encoder does).
        """
        if length <= 0:
            raise TraceFormatError("interval length must be positive")
        for start in range(0, len(self), length):
            yield AddressTrace(self.addresses[start : start + length], name=self.name)

    def iter_chunks(self, chunk_addresses: int) -> Iterator[np.ndarray]:
        """Yield consecutive fixed-size ``uint64`` array views of the trace.

        This is the bridge into the streaming pipeline: the concatenation
        of the yielded chunks is byte-identical to ``self.addresses``, so
        feeding the chunks to any ``*_stream`` consumer produces exactly
        the same result as feeding the whole array at once.
        """
        from repro.core.stream import chunk_array

        return chunk_array(self.addresses, chunk_addresses)

    # -- statistics -----------------------------------------------------------------
    def distinct_addresses(self) -> int:
        """Number of distinct addresses (the trace's footprint in blocks)."""
        return distinct_count(self.addresses)

    def footprint_bytes(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> int:
        """Footprint in bytes assuming each address names one cache block."""
        return self.distinct_addresses() * block_bytes

    def concat(self, other: "AddressTrace") -> "AddressTrace":
        """Return the concatenation of two traces (keeps ``self.name``)."""
        return AddressTrace(np.concatenate([self.addresses, other.addresses]), name=self.name)


def write_raw_trace(trace: Union[AddressTrace, np.ndarray, Sequence[int]], destination) -> int:
    """Write a trace as raw little-endian 64-bit values.

    Args:
        trace: Trace, array or sequence of addresses.
        destination: File path (``str``/``os.PathLike``) or binary file object.

    Returns:
        Number of bytes written.
    """
    if isinstance(trace, AddressTrace):
        payload = trace.to_bytes()
    else:
        payload = as_address_array(trace).tobytes()
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(os.fspath(destination), "wb") as handle:
            handle.write(payload)
    return len(payload)


def read_raw_trace(source, name: str = "") -> AddressTrace:
    """Read a raw little-endian 64-bit trace from a path or file object.

    Raises:
        TraceFormatError: If the byte length is not a multiple of eight.
    """
    if hasattr(source, "read"):
        payload = source.read()
    else:
        with open(os.fspath(source), "rb") as handle:
            payload = handle.read()
    if len(payload) % ADDRESS_BYTES:
        raise TraceFormatError(
            f"raw trace length {len(payload)} is not a multiple of {ADDRESS_BYTES} bytes"
        )
    addresses = np.frombuffer(payload, dtype=_UINT64).copy()
    return AddressTrace(addresses, name=name)


def iter_raw_chunks(source, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES) -> Iterator[np.ndarray]:
    """Stream fixed-size address chunks from a raw trace file.

    This is the bounded-memory entry of the streaming pipeline: the trace
    is read ``chunk_addresses`` records at a time (the final chunk may be
    shorter) and yielded as ``uint64`` arrays, so peak memory is one chunk
    regardless of the trace length.  The concatenated chunks are
    byte-identical to :func:`read_raw_trace` of the same source.

    Raises:
        TraceFormatError: If the stream ends with a partial 64-bit record.
    """
    chunk_addresses = check_chunk_addresses(chunk_addresses)
    handle = source
    opened = False
    if not hasattr(source, "read"):
        handle = open(os.fspath(source), "rb")
        opened = True
    try:
        pending = b""
        while True:
            payload = handle.read(chunk_addresses * ADDRESS_BYTES)
            if not payload:
                if pending:
                    raise TraceFormatError("raw trace ends with a partial 64-bit record")
                return
            if pending:
                payload = pending + payload
                pending = b""
            usable = len(payload) - (len(payload) % ADDRESS_BYTES)
            if usable != len(payload):
                # A short read split a record; keep the fragment for the
                # next round (pipes may deliver partial records mid-stream).
                pending = payload[usable:]
                payload = payload[:usable]
            if payload:
                yield np.frombuffer(payload, dtype=_UINT64)
    finally:
        if opened:
            handle.close()


def iter_raw_addresses(source, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES) -> Iterator[int]:
    """Stream addresses from a raw trace without loading it fully in memory.

    This is the reading loop of the paper's ``bin2atc`` example program
    (Figure 6): read 8 bytes at a time from a file-like object and yield
    each 64-bit value.  Reading is chunked for speed (see
    :func:`iter_raw_chunks` for the bulk variant the streaming pipeline
    uses).
    """
    for chunk in iter_raw_chunks(source, chunk_addresses):
        for value in chunk:
            yield int(value)


def _ensure_binary_stream(obj) -> io.BufferedIOBase:  # pragma: no cover - helper for CLI
    if isinstance(obj, io.BufferedIOBase):
        return obj
    raise TraceFormatError("expected a binary stream")
