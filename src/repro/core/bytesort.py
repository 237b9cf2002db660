"""The bytesort reversible transformation (paper, Section 4).

Bytesort takes a finite window of 64-bit addresses and emits eight blocks of
bytes, one per byte position, from the most significant byte to the least
significant byte:

1. emit the current most-significant byte of every address, in the current
   address order ("byte unshuffling");
2. stably sort the addresses by that byte;
3. repeat with the next byte position.

Because the sort is *stable*, the permutation applied at each step is fully
determined by the byte block that was just emitted (a counting sort of its
values), so the transformation is reversible: the decompressor replays the
same sorts from the emitted blocks.  The effect of the successive sorts is
that addresses from the same memory region are progressively grouped
together, which exposes repeated access patterns to a downstream byte-level
compressor (bzip2 in the paper).

The transformation is linear in time and space in the window size, matching
the complexity the paper claims for the C implementation of Figure 2.

This module provides the window transform, its inverse and the streaming
variant that processes a long trace with a finite buffer of ``B`` addresses
(the paper's "small bytesort" uses B = 1 M and "big bytesort" B = 10 M).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import CodecError
from repro.traces.trace import ADDRESS_BYTES, as_address_array

__all__ = [
    "bytesort_window",
    "bytesort_inverse_window",
    "bytesort_transform",
    "bytesort_inverse",
    "iter_windows",
]


def iter_windows(addresses: np.ndarray, buffer_addresses: int) -> Iterable[np.ndarray]:
    """Yield consecutive windows of at most ``buffer_addresses`` addresses."""
    if buffer_addresses <= 0:
        raise CodecError("buffer_addresses must be positive")
    for start in range(0, addresses.size, buffer_addresses):
        yield addresses[start : start + buffer_addresses]


def bytesort_window(addresses) -> bytes:
    """Apply the bytesort transformation to one window of addresses.

    Returns the eight concatenated byte blocks (most significant byte block
    first), ``8 * len(addresses)`` bytes in total.  The transform does not
    shrink the data; it only reorders bytes so that a byte-level compressor
    can exploit the exposed regularity.

    Example:
        >>> payload = bytesort_window([1, 2, 3])
        >>> len(payload)
        24
        >>> bytesort_inverse_window(payload).tolist()
        [1, 2, 3]
    """
    values = as_address_array(addresses)
    count = int(values.size)
    if count == 0:
        return b""
    # columns[k, j] is byte of order j of address k (j = 0 is the LSB).
    columns = values.view(np.uint8).reshape(count, ADDRESS_BYTES)
    # one preallocated output matrix, one row per emitted block: a single
    # final tobytes() replaces eight intermediate byte strings plus a join
    out = np.empty((ADDRESS_BYTES, count), dtype=np.uint8)
    order = np.arange(count)
    for block_index in range(ADDRESS_BYTES):
        position = ADDRESS_BYTES - 1 - block_index
        column = columns[order, position]
        out[block_index] = column
        if position:  # no need to sort after the last (least significant) block
            order = order[np.argsort(column, kind="stable")]
    return out.tobytes()


def bytesort_inverse_window(payload: bytes) -> np.ndarray:
    """Invert :func:`bytesort_window`.

    The inverse replays the forward pass: the first block gives the most
    significant byte of every address in original order; a stable counting
    sort of that block reproduces the permutation the encoder applied before
    emitting the second block, and so on.
    """
    if len(payload) % ADDRESS_BYTES:
        raise CodecError(
            f"bytesorted window length {len(payload)} is not a multiple of {ADDRESS_BYTES}"
        )
    count = len(payload) // ADDRESS_BYTES
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    blocks = np.frombuffer(payload, dtype=np.uint8).reshape(ADDRESS_BYTES, count)
    columns = np.empty((count, ADDRESS_BYTES), dtype=np.uint8)
    order = np.arange(count)
    for block_index in range(ADDRESS_BYTES):
        position = ADDRESS_BYTES - 1 - block_index  # byte order j, MSB first
        block = blocks[block_index]
        # block[k] is the byte of the address currently at position k of the
        # encoder's working order; map it back to the original address index.
        columns[order, position] = block
        if position:
            order = order[np.argsort(block, kind="stable")]
    return columns.view("<u8").reshape(count).copy()


def bytesort_transform(addresses, buffer_addresses: int = 1_000_000) -> bytes:
    """Bytesort a whole trace window by window with a finite buffer.

    This is the streaming formulation of Section 4.1: "For long address
    traces, we use a finite size buffer of B x 8 bytes, and we output the
    eight blocks every B addresses."  A bigger buffer exposes longer-range
    regularity and therefore compresses better (Table 1's bs1 vs bs10).

    Example:
        >>> import numpy as np
        >>> trace = np.arange(10, dtype=np.uint64)
        >>> payload = bytesort_transform(trace, buffer_addresses=4)
        >>> bool(np.array_equal(bytesort_inverse(payload, buffer_addresses=4), trace))
        True
    """
    values = as_address_array(addresses)
    return b"".join(bytesort_window(window) for window in iter_windows(values, buffer_addresses))


def bytesort_inverse(payload: bytes, buffer_addresses: int = 1_000_000) -> np.ndarray:
    """Invert :func:`bytesort_transform` (must use the same buffer size)."""
    if buffer_addresses <= 0:
        raise CodecError("buffer_addresses must be positive")
    window_bytes = buffer_addresses * ADDRESS_BYTES
    if len(payload) % ADDRESS_BYTES:
        raise CodecError("bytesorted payload length is not a multiple of 8")
    windows = [
        bytesort_inverse_window(payload[start : start + window_bytes])
        for start in range(0, len(payload), window_bytes)
    ]
    if not windows:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(windows)
