"""Ordered parallel primitives on one process-wide thread pool.

The paper's ATC tool overlaps compression with trace generation by piping
bytesorted blocks through an external ``bzip2 -c`` process.  This module
gets that overlap from threads: the stdlib codecs and the large-array
numpy kernels release the GIL.  Every fan-out runs on one lazily created
``ThreadPoolExecutor`` of :func:`usable_cpus` threads, never shut down and
dropped in forked children; with one usable CPU, or one worker, work runs
inline, the reference every parallel path must be byte-identical to.

* :func:`map_ordered` — an order-preserving ``map``: the caller and up to
  ``min(workers, usable_cpus()) - 1`` pool helpers share one index.
* :class:`OrderedChunkWriter` — submits chunk tasks to the pool and writes
  their payloads back in submission order, at most ``2 * workers`` ahead.

One waiting rule makes nesting safe on the bounded pool (bz2 pieces inside
a chunk task inside a sweep group): a pool thread never blocks on a task
that no thread has started, but cancels it and runs it itself
(:class:`_Call`).
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Deque, Iterable, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

__all__ = ["usable_cpus", "resolve_workers", "map_ordered", "OrderedChunkWriter"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Name prefix of the process pool's threads.
POOL_THREAD_PREFIX = "repro-pool"

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


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


def _process_pool() -> Optional[ThreadPoolExecutor]:
    """The process's one thread pool, created on first use; ``None`` on one usable CPU."""
    global _pool
    if usable_cpus() <= 1:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(usable_cpus(), thread_name_prefix=POOL_THREAD_PREFIX)
        return _pool


def _forget_pool() -> None:
    """Drop the parent's pool in a forked child: its threads did not fork."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _Call:
    """``fn(*args)`` on the process pool, awaited by the waiting rule.

    On a pool thread, :meth:`result` never blocks on a call that no thread
    has started: it cancels the call and runs it there.  Any other thread
    waits, which cannot deadlock since pool threads finish what they start,
    and keeps the work on the pool (a caller that ran queued decoder loads
    itself decoded slower).  The arguments are dropped once the call has
    run or been cancelled.
    """

    __slots__ = ("_fn", "_args", "future")

    def __init__(self, pool: ThreadPoolExecutor, fn: Callable, *args) -> None:
        self._fn, self._args = fn, args
        self.future: Future = pool.submit(self._run)

    def _run(self):
        fn, args = self._fn, self._args
        self._fn = self._args = None
        return fn(*args)

    def result(self):
        on_pool = threading.current_thread().name.startswith(POOL_THREAD_PREFIX)
        if on_pool and self.future.cancel():
            return self._run()
        return self.future.result()

    def cancel(self) -> bool:
        """Drop the call unless a thread has started it; ``True`` if dropped."""
        if not self.future.cancel():
            return False
        self._fn = self._args = None
        return True


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T], workers: Optional[int] = 1) -> List[_R]:
    """Apply ``fn`` to every item, in parallel, preserving input order.

    The caller and up to ``min(workers, usable_cpus()) - 1`` helpers on the
    process pool take items from one shared index (``0``/``None`` workers =
    one per usable CPU); with one worker, one usable CPU or one item this is
    a plain list comprehension.  After a failure no new item starts, and
    the call re-raises it only once every started item has finished.

    Example:
        >>> map_ordered(lambda value: value * 2, [1, 2, 3], workers=2)
        [2, 4, 6]
    """
    items = list(items)
    helpers = min(resolve_workers(workers), usable_cpus(), len(items)) - 1
    pool = _process_pool() if helpers > 0 else None
    if pool is None:
        return [fn(item) for item in items]
    results: List = [None] * len(items)
    indexes = iter(range(len(items)))

    def drain() -> None:
        for index in indexes:
            try:
                results[index] = fn(items[index])
            except BaseException:
                deque(indexes, maxlen=0)  # start no new item
                raise

    running = [_Call(pool, drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # an unstarted helper would find no item left
        started = [call.future for call in running if not call.cancel()]
        wait(started)
    for future in started:
        future.result()  # re-raises a helper's failure
    return results


class OrderedChunkWriter:
    """Run chunk tasks on the process pool, writing results in submission order.

    Args:
        write: Callback ``write(chunk_id, payload)`` invoked on the caller's
            thread, strictly in the order chunks were submitted.
        workers: ``1`` (or one usable CPU) runs every task inline; more
            keep up to ``2 * workers`` tasks on the pool before
            :meth:`submit` waits on the oldest; ``0``/``None`` = one per
            usable CPU.
    """

    def __init__(self, write: Callable[[int, bytes], object], workers: Optional[int] = 1) -> None:
        self._write = write
        self.workers = resolve_workers(workers)
        #: Where tasks run; ``None`` runs them inline in :meth:`submit`, so
        #: only a writer with a pool needs owned task arguments.
        self.pool = _process_pool() if self.workers > 1 else None
        self._pending: Deque[Tuple[int, _Call]] = deque()
        self._closed = False

    def submit(self, chunk_id: int, task: Callable[..., bytes], *args) -> None:
        """Queue one chunk; ``task(*args)`` produces its compressed payload."""
        if self._closed:
            raise ConfigurationError("cannot submit chunks to a closed OrderedChunkWriter")
        if self.pool is None:
            self._write(chunk_id, task(*args))
            return
        self._pending.append((chunk_id, _Call(self.pool, task, *args)))
        while len(self._pending) > 2 * self.workers:
            self._drain_one()

    def _drain_one(self) -> None:
        chunk_id, call = self._pending.popleft()
        self._write(chunk_id, call.result())

    def close(self) -> None:
        """Drain every in-flight chunk, in order."""
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

    def cancel(self) -> None:
        """Drop all in-flight chunks unwritten (error path); started tasks finish unseen."""
        self._closed = True
        for _, call in self._pending:
            call.cancel()
        self._pending.clear()
        self._write = None  # break the owner cycle, as in close()

    def __enter__(self) -> "OrderedChunkWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()
