"""Bounded-memory chunk plumbing for the streaming trace pipeline.

The paper's whole point is that cache-filtered address traces are far too
large to hold raw; a billion-reference trace is 8 GB before compression.
Every streaming entry point in this library therefore speaks one common
currency: an *address-chunk stream*, i.e. a plain Python iterable of
contiguous ``uint64`` NumPy arrays whose concatenation is the trace.  Peak
memory of a pipeline built from chunk streams is bounded by the chunk size
(times the worker count for parallel stages), never by the trace length.

This module holds the generic plumbing shared by every stage:

* :func:`chunk_array` — slice an in-memory array into fixed-size chunk
  views (the bridge from the materialised world into the streaming one);
* :func:`rechunk` — regroup an arbitrary chunk stream into fixed-size
  chunks (the bridge between stages with different natural chunk sizes,
  e.g. decoder intervals -> fixed output chunks);
* :func:`concat_chunks` — materialise a chunk stream (the bridge back,
  used by in-memory wrappers and equivalence tests);
* :func:`count_addresses` — drain a chunk stream into a sink, returning
  the address count.

Byte-identity guarantee: all helpers preserve the concatenated address
sequence exactly — re-chunking never reorders, drops or duplicates a
value, so any pipeline stage may re-chunk freely without changing results.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

# repro.traces.trace is a leaf module (it imports only repro.errors), so
# this is the one core -> traces module-level import that cannot cycle; it
# also makes trace.py the single home of the pipeline's chunk-size default.
from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES, as_address_array, check_chunk_addresses

__all__ = [
    "DEFAULT_CHUNK_ADDRESSES",
    "check_chunk_addresses",
    "chunk_array",
    "map_chunks",
    "rechunk",
    "concat_chunks",
    "count_addresses",
    "stream_digest",
]

_U64 = np.dtype("<u8")


def _as_chunk(values) -> np.ndarray:
    """Convert one chunk to a ``uint64`` array without copying when possible."""
    return as_address_array(values)


def chunk_array(array, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES) -> Iterator[np.ndarray]:
    """Yield consecutive fixed-size views of an in-memory address array.

    The final chunk may be shorter.  Chunks are *views* (no copies), so the
    concatenation of the yielded chunks is byte-identical to ``array``.

    Example:
        >>> import numpy as np
        >>> [chunk.tolist() for chunk in chunk_array(np.arange(5, dtype=np.uint64), 2)]
        [[0, 1], [2, 3], [4]]
    """
    chunk_addresses = check_chunk_addresses(chunk_addresses)
    array = _as_chunk(array)
    for start in range(0, int(array.size), chunk_addresses):
        yield array[start : start + chunk_addresses]


def map_chunks(chunks: Iterable, transform: Callable) -> Iterator:
    """Lazily apply a (possibly stateful) per-chunk transform to a stream.

    The generic plumbing behind every chunked simulation stage: the cache
    filter is a *stateful* transform (simulator state carries from one
    chunk to the next inside ``transform``), and mapping it over a chunk
    stream one chunk at a time is exactly what keeps its peak memory
    bounded by the chunk size.  Chunks are pulled
    only as the consumer iterates, so upstream laziness is preserved —
    this is :func:`map` under its pipeline-stage name, documented here so
    chunked stages share one idiom instead of ad-hoc generators.

    Example:
        >>> import numpy as np
        >>> doubled = map_chunks(chunk_array(np.arange(4, dtype=np.uint64), 2),
        ...                      lambda chunk: chunk * np.uint64(2))
        >>> [chunk.tolist() for chunk in doubled]
        [[0, 2], [4, 6]]
    """
    return map(transform, chunks)


def rechunk(
    chunks: Iterable[np.ndarray], chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES
) -> Iterator[np.ndarray]:
    """Regroup a chunk stream into chunks of exactly ``chunk_addresses``.

    Every yielded chunk except possibly the last has exactly
    ``chunk_addresses`` addresses; empty input chunks are absorbed.  The
    concatenated output is byte-identical to the concatenated input, and
    peak memory is bounded by ``chunk_addresses`` plus the largest input
    chunk (never by the stream length).  Yielded chunks own their memory,
    so producers are free to reuse their buffers and consumers are free to
    retain chunks across iterations.

    Example:
        >>> import numpy as np
        >>> ragged = [np.array([0, 1, 2], dtype=np.uint64), np.array([3], dtype=np.uint64)]
        >>> [chunk.tolist() for chunk in rechunk(ragged, 2)]
        [[0, 1], [2, 3]]
    """
    chunk_addresses = check_chunk_addresses(chunk_addresses)
    spill: List[np.ndarray] = []
    buffered = 0
    for chunk in chunks:
        chunk = _as_chunk(chunk)
        offset = 0
        size = int(chunk.size)
        while buffered + (size - offset) >= chunk_addresses:
            take = chunk_addresses - buffered
            spill.append(chunk[offset : offset + take])
            offset += take
            if len(spill) == 1:
                # Copy: the producer may reuse its buffer after the yield.
                yield np.array(spill[0], dtype=_U64, copy=True)
            else:
                yield np.concatenate(spill)
            spill = []
            buffered = 0
        if offset < size:
            # Copy the tail for the same reason: spilled pieces must own
            # their memory across producer iterations.
            spill.append(np.array(chunk[offset:], dtype=_U64, copy=True))
            buffered += size - offset
    if spill:
        yield spill[0] if len(spill) == 1 else np.concatenate(spill)


def concat_chunks(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Materialise a chunk stream into one contiguous address array.

    All chunks are collected before concatenating, so the producer must
    not mutate a chunk after yielding it (every chunk stream this library
    produces satisfies that: :func:`rechunk` yields owned chunks, and the
    other sources yield views of arrays that are never written again).  A
    buffer-reusing producer should be wrapped in :func:`rechunk` first.
    With a single non-empty chunk, that chunk is returned as-is (no copy).

    Example:
        >>> import numpy as np
        >>> concat_chunks(chunk_array(np.arange(5, dtype=np.uint64), 2)).tolist()
        [0, 1, 2, 3, 4]
    """
    pieces = [_as_chunk(chunk) for chunk in chunks]
    pieces = [piece for piece in pieces if piece.size]
    if not pieces:
        return np.empty(0, dtype=_U64)
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces)


def count_addresses(
    chunks: Iterable[np.ndarray], sink: Optional[Callable[[np.ndarray], object]] = None
) -> int:
    """Drain a chunk stream, optionally passing every chunk to ``sink``.

    Returns the total number of addresses seen.  This is a convenience
    terminal stage for write-side pipelines (pass the writer as ``sink``).

    Example:
        >>> import numpy as np
        >>> count_addresses(chunk_array(np.arange(5, dtype=np.uint64), 2))
        5
    """
    total = 0
    for chunk in chunks:
        chunk = _as_chunk(chunk)
        total += int(chunk.size)
        if sink is not None:
            sink(chunk)
    return total


def stream_digest(chunks: Iterable[np.ndarray]) -> "tuple[int, str]":
    """Drain a chunk stream, returning ``(address_count, sha256_hex)``.

    The digest covers the little-endian 8-byte encoding of every address
    in order, independent of chunking (re-chunking a stream never changes
    its digest), so two decode paths can be compared for byte-identity at
    flat memory — this is how ``repro fsck`` and the chaos harness assert
    "decodes to exactly the same trace" without materialising either side.

    Example:
        >>> import numpy as np
        >>> a = stream_digest(chunk_array(np.arange(5, dtype=np.uint64), 2))
        >>> b = stream_digest(chunk_array(np.arange(5, dtype=np.uint64), 3))
        >>> a == b and a[0] == 5
        True
    """
    import hashlib

    digest = hashlib.sha256()
    total = 0
    for chunk in chunks:
        chunk = np.ascontiguousarray(_as_chunk(chunk), dtype=_U64)
        total += int(chunk.size)
        digest.update(chunk.tobytes())
    return total, digest.hexdigest()
