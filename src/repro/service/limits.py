"""Robustness primitives of the ATC service: gate, cancellation, drain.

Three small, independently testable pieces compose the service's
overload behaviour (see ``docs/service.md`` for the operator view):

* :class:`ConnectionGate` — a non-blocking connection semaphore.  A
  connection either acquires a slot immediately or is turned away with
  ``429 Too Many Requests`` and a ``Retry-After`` hint; the service never
  queues connections invisibly, so saturation is observable backpressure
  instead of unbounded latency.  Slots are released when the connection
  ends for *any* reason, including a client disconnecting mid-stream.
* :class:`CancelToken` — cooperative cancellation for executor jobs.  The
  event loop cannot interrupt a compression job running on a worker
  thread, so jobs check the token at chunk boundaries and
  abort with :class:`JobCancelled`; a timed-out request therefore stops
  consuming CPU at the next boundary instead of running to completion.
* :class:`DrainController` — graceful-shutdown state.  ``SIGTERM`` flips
  the controller to draining: the listener closes, racing connections are
  refused with 503, in-flight requests run to completion, and the process
  exits 0 once the gate reports idle.

Example:
    >>> gate = ConnectionGate(max_connections=1)
    >>> gate.try_acquire(), gate.try_acquire()
    (True, False)
    >>> gate.release(); gate.wait_idle(timeout=1.0)
    True
"""

from __future__ import annotations

import threading

from repro.errors import ConfigurationError, ServiceError

__all__ = [
    "DEFAULT_RETRY_AFTER",
    "JobCancelled",
    "CancelToken",
    "ConnectionGate",
    "DrainController",
]

#: Default ``Retry-After`` hint (seconds) on 429 responses.  Deliberately
#: short: a saturated ATC service drains quickly once a codec job finishes,
#: so clients should retry soon rather than back off for minutes.
DEFAULT_RETRY_AFTER = 1


class JobCancelled(ServiceError):
    """An executor job observed its :class:`CancelToken` and aborted.

    Raised *inside* the job (on the worker thread) by
    :meth:`CancelToken.raise_if_cancelled`; the dispatcher that cancelled
    the request never sees it — the exception only unwinds the job so its
    encoder/decoder context managers clean up partial output.
    """


class CancelToken:
    """A one-way cancellation flag shared between a request and its job.

    The request side calls :meth:`cancel` (on timeout or client
    disconnect); the job side calls :meth:`raise_if_cancelled` at chunk
    boundaries.  Tokens are single-use and never reset.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; idempotent."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Abort the job with :class:`JobCancelled` when cancelled."""
        if self._event.is_set():
            raise JobCancelled("the request owning this job was cancelled")

    def guard(self, iterable):
        """Wrap an iterable so each step checks the token first.

        The encoder's chunk stream rides through this, turning every chunk
        boundary into a cancellation point without the codec knowing.
        """
        for item in iterable:
            self.raise_if_cancelled()
            yield item


class ConnectionGate:
    """Non-blocking counting semaphore over live connections.

    Args:
        max_connections: Hard cap on concurrently served connections.
        retry_after: ``Retry-After`` hint (seconds) attached to 429s.
    """

    def __init__(self, max_connections: int, retry_after: int = DEFAULT_RETRY_AFTER) -> None:
        if not isinstance(max_connections, int) or max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be a positive integer, got {max_connections!r}"
            )
        if retry_after < 0:
            raise ConfigurationError(f"retry_after must be non-negative, got {retry_after!r}")
        self.max_connections = max_connections
        self.retry_after = int(retry_after)
        self._active = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    @property
    def active(self) -> int:
        """Number of currently held slots."""
        with self._lock:
            return self._active

    def try_acquire(self) -> bool:
        """Take a slot if one is free; never blocks."""
        with self._lock:
            if self._active >= self.max_connections:
                return False
            self._active += 1
            return True

    def release(self) -> None:
        """Return a slot; wakes :meth:`wait_idle` waiters at zero."""
        with self._lock:
            if self._active <= 0:
                raise ServiceError("ConnectionGate.release without a matching acquire")
            self._active -= 1
            if self._active == 0:
                self._idle.notify_all()

    def wait_idle(self, timeout: float = None) -> bool:
        """Block until no slot is held; True on idle, False on timeout.

        The drain path calls this (off the event loop) after the listener
        closed, so "exit 0" means every in-flight request finished.
        """
        with self._lock:
            if self._active == 0:
                return True
            return self._idle.wait_for(lambda: self._active == 0, timeout=timeout)


class DrainController:
    """Graceful-shutdown flag consulted by every connection handler."""

    def __init__(self) -> None:
        self._draining = threading.Event()

    @property
    def draining(self) -> bool:
        """True once shutdown was requested; new requests are refused."""
        return self._draining.is_set()

    def begin(self) -> bool:
        """Enter draining state; returns False when already draining."""
        already = self._draining.is_set()
        self._draining.set()
        return not already
