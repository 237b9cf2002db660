"""Ordered parallel primitives behind every fan-out in the library.

The paper's ATC tool overlaps compression with trace generation by piping
bytesorted blocks through an external ``bzip2 -c`` process; the operating
system runs the compressor on another core.  This module reproduces that
overlap in-process with threads: the stdlib codecs (``bz2``, ``zlib``,
``lzma``) and the large-array numpy kernels release the GIL, so a small
thread pool runs them next to the caller with zero serialisation cost.

The worker count alone picks the strategy: one worker runs every task
inline (the reference behaviour the thread path must be byte-identical
to, with no pool overhead), more run on a stdlib
:class:`~concurrent.futures.ThreadPoolExecutor` of that size.

The library default is ``workers=1``, so by default the encoder
compresses inline and the paper's overlap is *not* reproduced: only the
bz2 back-end's block pool uses a second core.  Pipelining the encoder by
default was measured: ``online_lossless`` ingest rose from 2.05 to 2.20
Mref/s, but peak RSS rose from 176 MB to 213-246 MB with up to
``2 * workers`` chunks in flight, so the overlap is opt-in.  Two
primitives sit on top:

* :func:`map_ordered` — a ``map`` that preserves input order (sweep
  cells, trace generation).
* :class:`OrderedChunkWriter` — a streaming pipeline stage: submit
  ``(chunk_id, fn, args)`` triples as chunk boundaries are reached;
  completed payloads are written back strictly in submission order, and at
  most ``max_pending`` chunks are in flight so memory stays bounded.

Correctness contract: results never reorder, so the chunk pipeline's hard
invariant (parallel output byte-identical to serial output) holds by
construction.  A task exception propagates to the caller unchanged, and a
pool created here is joined before its call returns.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Deque, Iterable, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

__all__ = ["usable_cpus", "resolve_workers", "map_ordered", "OrderedChunkWriter"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob to a concrete positive integer.

    ``None`` and ``0`` mean "one worker per usable CPU"; any positive
    integer is taken literally; negative values and booleans are rejected.
    """
    if workers is None:
        return usable_cpus()
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 0:
        raise ConfigurationError(f"workers must be a non-negative integer or None, got {workers!r}")
    return workers or usable_cpus()


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T], workers: Optional[int] = 1) -> List[_R]:
    """Apply ``fn`` to every item, in parallel, preserving input order.

    With one worker (or fewer than two items) this is a plain list
    comprehension; otherwise the items run on a thread pool of ``workers``
    threads (``0``/``None`` = one per usable CPU), joined before returning.

    Example:
        >>> map_ordered(lambda value: value * 2, [1, 2, 3], workers=2)
        [2, 4, 6]
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


class OrderedChunkWriter:
    """Run chunk tasks on a thread pool, writing results in submission order.

    Args:
        write: Callback ``write(chunk_id, payload)`` invoked on the caller's
            thread, strictly in the order chunks were submitted.
        workers: Pool size when no ``executor`` is shared (``0``/``None`` =
            one per usable CPU); ``1`` runs every task inline, the
            reference behaviour.
        max_pending: Maximum number of chunks in flight before :meth:`submit`
            blocks on the oldest one (defaults to ``2 * workers``), bounding
            the memory held by buffered intervals and finished payloads.
        executor: A live thread pool to share; it is left open on close,
            while a pool created here is shut down with the writer.
    """

    def __init__(
        self,
        write: Callable[[int, bytes], object],
        workers: Optional[int] = 1,
        max_pending: Optional[int] = None,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> None:
        self._write = write
        self.workers = resolve_workers(workers)
        self._owns_pool = executor is None and self.workers > 1
        #: Where tasks run; ``None`` runs them inline in :meth:`submit`, so
        #: only a writer with a pool needs owned task arguments.
        self.pool = ThreadPoolExecutor(self.workers) if self._owns_pool else executor
        self._max_pending = max_pending if max_pending is not None else 2 * self.workers
        self._pending: Deque[Tuple[int, Future]] = deque()
        self._closed = False

    def submit(self, chunk_id: int, task: Callable[..., bytes], *args) -> None:
        """Queue one chunk; ``task(*args)`` produces its compressed payload."""
        if self._closed:
            raise ConfigurationError("cannot submit chunks to a closed OrderedChunkWriter")
        if self.pool is None:
            self._write(chunk_id, task(*args))
            return
        self._pending.append((chunk_id, self.pool.submit(task, *args)))
        while len(self._pending) > self._max_pending:
            self._drain_one()

    def _drain_one(self) -> None:
        chunk_id, future = self._pending.popleft()
        self._write(chunk_id, future.result())

    def close(self) -> None:
        """Drain every in-flight chunk (in order) and shut an owned pool down."""
        if self._closed:
            return
        self._closed = True
        try:
            while self._pending:
                self._drain_one()
        finally:
            # the callback is usually a bound method of this writer's owner
            # (an ``AtcEncoder``); dropping it breaks the reference cycle,
            # so a closed owner and its buffers are freed at once instead of
            # waiting for the cyclic garbage collector
            self._write = None
            if self._owns_pool:
                self.pool.shutdown()

    def cancel(self) -> None:
        """Drop all in-flight chunks without writing them (error path).

        Queued-but-unstarted tasks are cancelled and finished results are
        discarded.  A shared pool is left open; one created here is shut
        down.
        """
        self._closed = True
        for _, future in self._pending:
            future.cancel()
        self._pending.clear()
        self._write = None  # break the owner cycle, as in close()
        if self._owns_pool:
            self.pool.shutdown(cancel_futures=True)

    def __enter__(self) -> "OrderedChunkWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()
