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

The forward transform holds the window plane-major: one transposition turns
the addresses into an ``(8, n)`` matrix whose row ``k`` is byte ``k`` (MSB
first) of every address, so each step gathers from one contiguous row rather
than a strided byte column; the inverse likewise scatters each block into a
contiguous row.  A stable sort by a constant key is the identity, so a byte
plane holding one value everywhere (the high bytes of block addresses) costs
neither a sort nor a permutation composition.

This module provides the window transform, its inverse and the streaming
variant that processes a long trace with a finite buffer of ``B`` addresses
(the paper's "small bytesort" uses B = 1 M and "big bytesort" B = 10 M).
"""

from __future__ import annotations

from typing import Iterable, Optional

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


def _is_constant(plane: np.ndarray) -> bool:
    """True when every byte of ``plane`` equals its first."""
    return bool((plane == plane[0]).all())


def _sort_step(block: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """Compose ``order`` with the stable sort by ``block`` (``None`` is the identity)."""
    perm = np.argsort(block, kind="stable")
    return perm if order is None else order[perm]


def _forward_into(values: np.ndarray, blocks: np.ndarray) -> None:
    """Bytesort the non-empty window ``values`` into the ``(8, n)`` matrix ``blocks``.

    ``blocks`` first receives the byte planes (row ``k`` is byte ``k``, MSB
    first, of every address in input order); each row is then permuted in
    place into the current sort order before it is sorted by.
    """
    count = int(values.size)
    # columns[i, j] is byte of order j of address i (j = 0 is the LSB).
    columns = values.view(np.uint8).reshape(count, ADDRESS_BYTES)
    np.copyto(blocks, columns[:, ::-1].T)
    order = None  # the identity until the first non-constant plane
    for block_index in range(ADDRESS_BYTES):
        plane = blocks[block_index]
        if _is_constant(plane):
            continue  # the same constant in every order, and a no-op sort key
        if order is not None:
            plane[...] = plane[order]
        if block_index < ADDRESS_BYTES - 1:  # the LSB block is never sorted by
            order = _sort_step(plane, order)


def _inverse_into(blocks: np.ndarray, values: np.ndarray) -> None:
    """Invert :func:`_forward_into`: decode the ``(8, n)`` matrix ``blocks`` into ``values``.

    Block ``k`` holds byte ``k`` of every address in the encoder's working
    order at step ``k``; scattering it through that order into a contiguous
    row restores input order, and the row is then copied into its byte
    column of ``values`` (eight strided column copies measure faster than
    one transposition of an ``(8, n)`` matrix).
    """
    count = int(values.size)
    columns = values.view(np.uint8).reshape(count, ADDRESS_BYTES)
    row = np.empty(count, dtype=np.uint8)
    order = None
    for block_index in range(ADDRESS_BYTES):
        block = blocks[block_index]
        column = columns[:, ADDRESS_BYTES - 1 - block_index]
        if _is_constant(block):
            column[...] = block[0]
            continue
        if order is None:
            column[...] = block
        else:
            row[order] = block
            column[...] = row
        if block_index < ADDRESS_BYTES - 1:
            order = _sort_step(block, order)


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
    blocks = np.empty((ADDRESS_BYTES, count), dtype=np.uint8)
    _forward_into(values, blocks)
    return blocks.tobytes()


def bytesort_inverse_window(payload) -> np.ndarray:
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
    values = np.empty(count, dtype="<u8")
    if count:
        blocks = np.frombuffer(payload, dtype=np.uint8).reshape(ADDRESS_BYTES, count)
        _inverse_into(blocks, values)
    return values


def bytesort_transform(addresses, buffer_addresses: int = 1_000_000) -> bytes:
    """Bytesort a whole trace window by window with a finite buffer.

    This is the streaming formulation of Section 4.1: "For long address
    traces, we use a finite size buffer of B x 8 bytes, and we output the
    eight blocks every B addresses."  A bigger buffer exposes longer-range
    regularity and therefore compresses better (Table 1's bs1 vs bs10).
    Every window is transformed straight into its slice of one output.

    Example:
        >>> import numpy as np
        >>> trace = np.arange(10, dtype=np.uint64)
        >>> payload = bytesort_transform(trace, buffer_addresses=4)
        >>> bool(np.array_equal(bytesort_inverse(payload, buffer_addresses=4), trace))
        True
    """
    values = as_address_array(addresses)
    out = np.empty(ADDRESS_BYTES * values.size, dtype=np.uint8)
    start = 0
    for window in iter_windows(values, buffer_addresses):
        stop = start + ADDRESS_BYTES * window.size
        _forward_into(window, out[start:stop].reshape(ADDRESS_BYTES, window.size))
        start = stop
    return out.tobytes()


def bytesort_inverse(payload, buffer_addresses: int = 1_000_000) -> np.ndarray:
    """Invert :func:`bytesort_transform` (must use the same buffer size).

    Every window is decoded from its offset in ``payload`` (any bytes-like
    object) straight into its slice of one result array.
    """
    if buffer_addresses <= 0:
        raise CodecError("buffer_addresses must be positive")
    if len(payload) % ADDRESS_BYTES:
        raise CodecError("bytesorted payload length is not a multiple of 8")
    data = np.frombuffer(payload, dtype=np.uint8)
    total = data.size // ADDRESS_BYTES
    values = np.empty(total, dtype="<u8")
    for start in range(0, total, buffer_addresses):
        stop = min(total, start + buffer_addresses)
        window = data[ADDRESS_BYTES * start : ADDRESS_BYTES * stop]
        _inverse_into(window.reshape(ADDRESS_BYTES, stop - start), values[start:stop])
    return values
