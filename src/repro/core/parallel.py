"""Ordered parallel primitives behind every fan-out in the library.

The paper's ATC tool overlaps compression with trace generation by piping
bytesorted blocks through an external ``bzip2 -c`` process; the operating
system runs the compressor on another core.  This module reproduces that
overlap in-process with threads: the stdlib codecs (``bz2``, ``zlib``,
``lzma``) and the large-array numpy kernels release the GIL, so a small
thread pool runs them next to the caller with zero serialisation cost.

The worker count alone picks the strategy (:func:`resolve_executor`):

* ``workers == 1`` — :class:`SerialExecutor` runs every task inline at
  submission time; it is the reference behaviour the thread path must be
  byte-identical to, and keeps the default path free of pool overhead.
* ``workers > 1`` — :class:`ThreadExecutor`, a thread pool of that size.

Three primitives sit on top:

* :func:`map_ordered` — a ``map`` that preserves input order (bulk chunk
  compression, decoder bulk loads, sweep cells).
* :func:`imap_ordered` — its lazy form, with a bounded in-flight window.
* :class:`OrderedChunkWriter` — a streaming pipeline stage: submit
  ``(chunk_id, fn, args)`` triples as chunk boundaries are reached;
  completed payloads are written back strictly in submission order, and at
  most ``max_pending`` chunks are in flight so memory stays bounded.

Correctness contract: results never reorder — :meth:`Executor.submit`
hands back a :class:`concurrent.futures.Future` per task that the caller
drains in its own order — so the chunk pipeline's hard invariant (parallel
output byte-identical to serial output) holds by construction.  A task
exception propagates to the caller unchanged, and closing an executor
joins its threads.
"""

from __future__ import annotations

import abc
import itertools
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "resolve_workers",
    "resolve_executor",
    "executor_scope",
    "map_ordered",
    "imap_ordered",
    "OrderedChunkWriter",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker-count knob to a concrete positive integer.

    ``None`` and ``0`` mean "one worker per available CPU"; any positive
    integer is taken literally; negative values are rejected.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or workers < 0:
        raise ConfigurationError(f"workers must be a non-negative integer or None, got {workers!r}")
    return workers


class Executor(abc.ABC):
    """The engine interface every fan-out site in the library runs on."""

    #: Strategy name ("serial" or "thread").
    name: str = "abstract"

    #: True when submitted tasks may run after :meth:`submit` returns, in
    #: which case callers must not mutate (or reuse the buffers of)
    #: submitted arguments.  Serial execution runs tasks inline, so buffer
    #: reuse is safe there — the encoder relies on this to skip copies.
    is_async: bool = True

    def __init__(self, workers: int = 1) -> None:
        self.workers = resolve_workers(workers)

    @abc.abstractmethod
    def submit(self, fn: Callable[..., _R], *args) -> Future:
        """Schedule ``fn(*args)``; returns a future to collect the result."""

    def map_ordered(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply ``fn`` to every item, returning results in input order."""
        return list(self.imap_ordered(fn, items))

    def imap_ordered(
        self, fn: Callable[[_T], _R], items: Iterable[_T], lookahead: Optional[int] = None
    ) -> Iterator[_R]:
        """Lazily yield ``fn(item)`` results in input order.

        At most ``lookahead`` tasks (default ``2 * workers``) are in flight
        ahead of the consumer, bounding memory for long streams.
        """
        window = max(1, 2 * self.workers if lookahead is None else lookahead)
        pending: Deque[Future] = deque()
        iterator = iter(items)
        try:
            for item in itertools.islice(iterator, window):
                pending.append(self.submit(fn, item))
            while pending:
                future = pending.popleft()
                for item in itertools.islice(iterator, 1):
                    pending.append(self.submit(fn, item))
                yield future.result()
        finally:
            for future in pending:
                future.cancel()

    def close(self, cancel: bool = False) -> None:
        """Shut the executor down, joining its workers.

        With ``cancel=True`` queued-but-unstarted tasks are dropped (error
        path); otherwise they are allowed to finish.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.close(cancel=exc_type is not None)


class SerialExecutor(Executor):
    """Inline execution: ``submit`` runs the task before returning.

    The zero-overhead reference implementation — no pool, no queues, no
    copies — whose output the thread executor is compared against.

    Example:
        >>> with SerialExecutor() as executor:
        ...     executor.map_ordered(lambda value: value * 2, [1, 2, 3])
        [2, 4, 6]
    """

    name = "serial"
    is_async = False

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers=1)

    def submit(self, fn: Callable[..., _R], *args) -> Future:
        """Run ``fn(*args)`` immediately; the finished future replays the outcome."""
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:  # noqa: BLE001 - replayed by result()
            future.set_exception(error)
        return future

    def map_ordered(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Plain list comprehension (exceptions propagate eagerly)."""
        return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Thread-pool execution for GIL-releasing work.

    The stdlib byte codecs (``bz2``, ``zlib``, ``lzma``) and large-array
    numpy kernels release the GIL, so a small thread pool overlaps chunk
    compression with trace consumption exactly like the paper's external
    ``bzip2 -c`` process overlaps with the tracer.
    """

    name = "thread"

    def __init__(self, workers: int = 2) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(max_workers=self.workers)

    def submit(self, fn: Callable[..., _R], *args) -> Future:
        """Schedule ``fn(*args)`` on the pool."""
        if self._pool is None:
            raise ConfigurationError("cannot submit tasks to a closed executor")
        return self._pool.submit(fn, *args)

    def close(self, cancel: bool = False) -> None:
        """Shut the pool down; with ``cancel=True`` drop unstarted tasks."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=cancel)
            self._pool = None


def resolve_executor(workers: Optional[int] = 1) -> Executor:
    """A new executor for ``workers``: serial for one, threads beyond.

    Example:
        >>> resolve_executor(1).name
        'serial'
        >>> with resolve_executor(2) as executor:
        ...     executor.name, executor.workers
        ('thread', 2)
    """
    workers = resolve_workers(workers)
    return SerialExecutor() if workers <= 1 else ThreadExecutor(workers)


def _check_shared(executor) -> Optional[Executor]:
    """Validate a caller-supplied executor (``None`` or a live instance)."""
    if executor is not None and not isinstance(executor, Executor):
        raise ConfigurationError(f"executor must be an Executor instance or None, got {executor!r}")
    return executor


@contextmanager
def executor_scope(
    executor: Optional[Executor] = None, workers: Optional[int] = 1
) -> Iterator[Executor]:
    """Yield ``executor`` when one is shared, else a new one for ``workers``.

    A shared executor is left open for the caller to reuse; one created
    here is closed on exit (dropping unstarted tasks on an exception).
    """
    if _check_shared(executor) is not None:
        yield executor
        return
    with resolve_executor(workers) as owned:
        yield owned


def map_ordered(fn: Callable[[_T], _R], items: Sequence[_T], workers: int = 1) -> List[_R]:
    """Apply ``fn`` to every item, in parallel, preserving input order.

    With one worker (or fewer than two items) this is a plain list
    comprehension; otherwise the items run on a thread pool of ``workers``
    threads (``0``/``None`` = one per CPU).
    """
    items = list(items)
    if len(items) <= 1:
        return [fn(item) for item in items]
    with resolve_executor(workers) as engine:
        return engine.map_ordered(fn, items)


def imap_ordered(
    fn: Callable[[_T], _R], items, workers: int = 1, lookahead: Optional[int] = None
):
    """Lazily apply ``fn`` to an item stream, yielding results in order.

    The streaming form of :func:`map_ordered`: ``items`` may be any
    iterable (including an unbounded generator) and is consumed only as
    results are yielded, with at most ``lookahead`` tasks (default
    ``2 * workers``) in flight ahead of the consumer — so both the input
    items and the pending results stay bounded regardless of stream
    length.  Results are byte-identical to ``map(fn, items)``; with one
    worker items are processed one at a time with no window at all.

    Example:
        >>> list(imap_ordered(lambda value: value * 2, iter([1, 2, 3])))
        [2, 4, 6]
    """
    if resolve_workers(workers) <= 1:
        for item in items:
            yield fn(item)
        return
    with resolve_executor(workers) as engine:
        yield from engine.imap_ordered(fn, items, lookahead=lookahead)


class OrderedChunkWriter:
    """Run chunk tasks on an executor, writing results in submission order.

    Args:
        write: Callback ``write(chunk_id, payload)`` invoked on the caller's
            thread, strictly in the order chunks were submitted.
        workers: Pool size when the writer creates its own executor; ``1``
            selects inline serial execution, the reference behaviour.
        max_pending: Maximum number of chunks in flight before :meth:`submit`
            blocks on the oldest one (defaults to ``2 * workers``), bounding
            the memory held by buffered intervals and finished payloads.
        executor: A live :class:`Executor` to share; it is left open on
            close, while an executor created here is shut down with the
            writer.
    """

    def __init__(
        self,
        write: Callable[[int, bytes], object],
        workers: int = 1,
        max_pending: Optional[int] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        if isinstance(workers, int) and workers < 1 and executor is None:
            raise ConfigurationError("OrderedChunkWriter needs at least one worker")
        self._write = write
        shared = _check_shared(executor)
        self._owns_executor = shared is None
        self._executor = resolve_executor(workers) if shared is None else shared
        self.workers = self._executor.workers
        self._max_pending = max_pending if max_pending is not None else 2 * max(1, self.workers)
        self._pending: Deque[Tuple[int, Future]] = deque()
        self._closed = False

    @property
    def is_async(self) -> bool:
        """True when tasks may still be running after :meth:`submit` returns.

        Callers must hand such writers owned arguments (the encoder copies
        interval views before submitting); on the inline serial path buffer
        reuse is safe.
        """
        return self._executor.is_async

    def submit(self, chunk_id: int, task: Callable[..., bytes], *args) -> None:
        """Queue one chunk; ``task(*args)`` produces its compressed payload."""
        if self._closed:
            raise ConfigurationError("cannot submit chunks to a closed OrderedChunkWriter")
        if not self._executor.is_async:
            self._write(chunk_id, task(*args))
            return
        self._pending.append((chunk_id, self._executor.submit(task, *args)))
        while len(self._pending) > self._max_pending:
            self._drain_one()

    def _drain_one(self) -> None:
        chunk_id, future = self._pending.popleft()
        self._write(chunk_id, future.result())

    def close(self) -> None:
        """Drain every in-flight chunk (in order) and shut the pool down."""
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
            if self._owns_executor:
                self._executor.close()

    def cancel(self) -> None:
        """Drop all in-flight chunks without writing them (error path).

        Queued-but-unstarted tasks are cancelled and finished results are
        discarded.  A shared executor is left open; one created here is
        shut down.
        """
        self._closed = True
        for _, future in self._pending:
            future.cancel()
        self._pending.clear()
        self._write = None  # break the owner cycle, as in close()
        if self._owns_executor:
            self._executor.close(cancel=True)

    def __enter__(self) -> "OrderedChunkWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()
