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
* :func:`map_chunks` — apply a (possibly stateful) per-chunk transform
  lazily, the idiom of every chunked simulation stage.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

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
]


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
    array = as_address_array(array)
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
