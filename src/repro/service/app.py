"""The ATC service: an asyncio HTTP server over the streaming codec core.

This is the "ATC-as-a-service" deployment mode from the roadmap: the same
compression pipeline the ``repro`` CLI drives locally, exposed as a small
bulk-transfer HTTP API so trace producers (simulators, tracing rigs) can
ship raw address streams to a shared compression tier.

Endpoints (see ``docs/service.md`` for the full contract):

* ``POST /v1/compress``   — raw little-endian ``uint64`` trace in, packed
  container (deterministic tar) out.  Content-addressed: identical
  (trace, config) requests are served from the shared dedup cache.
* ``POST /v1/decompress`` — packed container in, raw trace out (streamed).
* ``POST /v1/inspect``    — packed container in, JSON summary out.
* ``POST /v1/sweep``      — JSON sweep spec in, JSON sweep result out.
* ``GET  /v1/healthz``    — liveness probe.
* ``GET  /v1/metrics``    — JSON counters (:mod:`repro.service.metrics`).

Three invariants hold everywhere:

1. **Codec work runs off the event loop.**  Every encode, decode, inspect
   and sweep job goes to the loop's default executor
   (``run_in_executor(None, ...)``, up to ``min(32, CPUs + 4)`` threads),
   so jobs of different connections run concurrently whatever
   ``workers`` says; ``workers`` is each job's chunk parallelism on the
   process-wide pool.  The loop itself still does some blocking work between
   socket reads: spool writes, ``tempfile.mkdtemp``, the dedup-cache
   lookup (with its digest scrub) and commit, tar pack and unpack, and the
   workdir ``rmtree``.  Moving that onto threads was measured and made
   the mixed serve workload slower.
2. **Memory per connection is bounded.**  Request bodies stream to a
   per-request spool file chunk by chunk; decoded traces stream back the
   same way.  No payload is ever held in memory whole (packed containers
   are the one exception — they are post-compression and small).
3. **Overload is visible.**  The connection gate answers saturation with
   immediate ``429 Too Many Requests`` + ``Retry-After``; per-request
   timeouts cancel executor jobs cooperatively and answer ``504``;
   ``SIGTERM`` drains gracefully and exits 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import AsyncIterator, Callable, Dict, Optional, Tuple

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, AtcDecoder, AtcEncoder
from repro.core.parallel import resolve_workers
from repro.core.lossy import LossyConfig
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.service.cache import CONTAINER_MEDIA_TYPE, ContainerCache, pack_container, unpack_container
from repro.service.http import (
    IO_CHUNK_BYTES,
    HttpError,
    Request,
    Response,
    read_request,
    write_response,
)
from repro.service.limits import (
    DEFAULT_RETRY_AFTER,
    CancelToken,
    ConnectionGate,
    DrainController,
    JobCancelled,
)
from repro.service.metrics import ServiceMetrics
from repro.traces.trace import ADDRESS_BYTES, DEFAULT_CHUNK_ADDRESSES, iter_raw_chunks

__all__ = ["ServiceConfig", "AtcService", "BackgroundServer"]

#: How long the drain path waits for in-flight requests after SIGTERM.
DEFAULT_DRAIN_TIMEOUT = 60.0


@dataclass
class ServiceConfig:
    """Everything the service needs to run, validated at construction.

    Attributes:
        host: Bind address; loopback by default (front a reverse proxy for
            anything else — the service itself does no authentication).
        port: TCP port; ``0`` picks an ephemeral port (tests, benchmarks).
        max_connections: Connection-gate capacity; excess gets 429.
        workers: The chunks each job's encoder or decoder keeps in flight
            on the process-wide thread pool; ``1`` codes them inline on the
            job's default-executor thread, ``0`` is one per usable CPU.
        request_timeout: Per-request processing budget in seconds; ``None``
            disables the timeout.
        max_body_bytes: Cap on any request body; overruns answer 413.
        cache_dir: Dedup-cache root; ``None`` uses a private temporary
            directory removed at shutdown (no dedup across restarts).
        retry_after: ``Retry-After`` hint (seconds) on 429 responses.
        drain_timeout: Grace period for in-flight requests at shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 8742
    max_connections: int = 8
    workers: int = 1
    request_timeout: Optional[float] = 300.0
    max_body_bytes: int = 1 << 30
    cache_dir: Optional[str] = None
    retry_after: int = DEFAULT_RETRY_AFTER
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT

    def __post_init__(self) -> None:
        if not 0 <= int(self.port) <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port!r}")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive (or None to disable)")
        if self.max_body_bytes < ADDRESS_BYTES:
            raise ConfigurationError(f"max_body_bytes must be >= {ADDRESS_BYTES}")
        if self.drain_timeout <= 0:
            raise ConfigurationError("drain_timeout must be positive")
        resolve_workers(self.workers)
        # The gate constructor validates max_connections / retry_after.
        ConnectionGate(self.max_connections, self.retry_after)


def _json_response(payload, status: int = 200, headers: Optional[Dict[str, str]] = None) -> Response:
    body = (json.dumps(payload, indent=2, default=str) + "\n").encode("utf-8")
    merged = {"Content-Type": "application/json"}
    merged.update(headers or {})
    return Response(status=status, headers=merged, body=body)


class AtcService:
    """The service itself: routing, request lifecycle, shutdown.

    One instance owns one listener, one connection gate, one metrics
    registry and one dedup cache.  Run it with :meth:`run` (blocking,
    installs signal handlers when possible) or host it in a test/benchmark
    with :class:`BackgroundServer`.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.gate = ConnectionGate(self.config.max_connections, self.config.retry_after)
        self.drain = DrainController()
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._owned_cache_dir: Optional[str] = None
        if self.config.cache_dir is None:
            self._owned_cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
            cache_root = self._owned_cache_dir
        else:
            cache_root = self.config.cache_dir
        self.cache = ContainerCache(
            cache_root, on_integrity_eviction=self.metrics.integrity_eviction
        )
        self._routes: Dict[str, Tuple[str, str, Callable]] = {
            "/v1/compress": ("compress", "POST", self._compress),
            "/v1/decompress": ("decompress", "POST", self._decompress),
            "/v1/inspect": ("inspect", "POST", self._inspect),
            "/v1/sweep": ("sweep", "POST", self._sweep),
            "/v1/healthz": ("healthz", "GET", self._healthz),
            "/v1/metrics": ("metrics", "GET", self._metrics),
        }

    # -- lifecycle -------------------------------------------------------------------------
    def run(self, ready: Optional[Callable[[], None]] = None) -> int:
        """Serve until :meth:`shutdown`; returns the process exit code."""
        return asyncio.run(self.run_async(ready=ready))

    async def run_async(self, ready: Optional[Callable[[], None]] = None) -> int:
        """Async body of :meth:`run` (hostable inside an existing loop)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if self.drain.draining:  # shutdown() raced service startup
            self._stop_event.set()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.add_signal_handler(signum, self.shutdown)
        server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        try:
            if ready is not None:
                ready()
            await self._stop_event.wait()
            # Drain: stop accepting, then wait for in-flight connections.
            server.close()
            await server.wait_closed()
            idle = await asyncio.to_thread(self.gate.wait_idle, self.config.drain_timeout)
            return 0 if idle else 1
        finally:
            server.close()
            if self._owned_cache_dir is not None:
                shutil.rmtree(self._owned_cache_dir, ignore_errors=True)

    def shutdown(self) -> None:
        """Begin a graceful drain; safe to call from any thread or a signal."""
        self.drain.begin()
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)

    # -- connection handling ---------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        if self.drain.draining:
            await self._refuse(writer, Response.text(503, "service is draining, not accepting requests"))
            return
        if not self.gate.try_acquire():
            self.metrics.connection_rejected()
            await self._refuse(
                writer,
                Response.text(
                    429,
                    "connection limit reached, retry shortly",
                    {"Retry-After": str(self.gate.retry_after)},
                ),
            )
            return
        try:
            await self._serve_one(reader, writer)
        finally:
            self.gate.release()
            await self._close_writer(writer)

    async def _refuse(self, writer: asyncio.StreamWriter, response: Response) -> None:
        with contextlib.suppress(OSError, asyncio.CancelledError):
            await write_response(writer, response)
        await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(OSError):
            writer.close()
            with contextlib.suppress(AttributeError):
                await writer.wait_closed()

    async def _serve_one(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._with_timeout(read_request(reader, self.config.max_body_bytes))
        except HttpError as error:
            await self._refuse(writer, Response.text(error.status, str(error), error.headers))
            return
        except asyncio.TimeoutError:
            await self._refuse(writer, Response.text(408, "timed out waiting for the request head"))
            return
        if request is None:  # client connected and went away
            return

        endpoint, handler, route_error = self._route(request)
        self.metrics.request_started(endpoint)
        started = time.monotonic()
        status: Optional[int] = None
        workdir = tempfile.mkdtemp(prefix="repro-serve-")
        token = CancelToken()
        try:
            if route_error is not None:
                response = route_error
            else:
                response = await self._dispatch(handler, request, token, workdir)
            written = await write_response(writer, response)
            self.metrics.add_bytes_out(written)
            status = response.status
        except (OSError, asyncio.CancelledError, asyncio.IncompleteReadError):
            # Client disconnected mid-request (or mid-response): cancel any
            # job still running and account the request as aborted.
            token.cancel()
        finally:
            self.metrics.request_finished(endpoint, status, time.monotonic() - started)
            shutil.rmtree(workdir, ignore_errors=True)

    def _route(self, request: Request) -> Tuple[str, Optional[Callable], Optional[Response]]:
        entry = self._routes.get(request.path)
        if entry is None:
            return "unknown", None, Response.text(404, f"no such endpoint: {request.path}")
        endpoint, method, handler = entry
        if request.method != method:
            return (
                endpoint,
                None,
                Response.text(405, f"{request.path} only accepts {method}", {"Allow": method}),
            )
        return endpoint, handler, None

    async def _dispatch(self, handler, request: Request, token: CancelToken, workdir: str) -> Response:
        try:
            return await self._with_timeout(handler(request, token, Path(workdir)))
        except asyncio.TimeoutError:
            token.cancel()
            self.metrics.request_timeout()
            return Response.text(504, f"request exceeded the {self.config.request_timeout}s budget")
        except HttpError as error:
            return Response.text(error.status, str(error), error.headers)
        except ServiceError as error:
            return Response.text(500, f"internal service error: {error}")
        except ReproError as error:
            # Library-level rejection of client-supplied data or parameters
            # (malformed container, bad codec configuration, corrupt trace).
            return Response.text(400, str(error))
        except Exception as error:  # last resort: a response beats a dropped connection
            return Response.text(500, f"internal error: {type(error).__name__}: {error}")

    def _with_timeout(self, awaitable):
        if self.config.request_timeout is None:
            return awaitable
        return asyncio.wait_for(awaitable, timeout=self.config.request_timeout)

    # -- executor jobs ---------------------------------------------------------------------
    async def _run_job(self, fn: Callable, token: CancelToken):
        """Run a CPU-bound job off the loop with queue-depth accounting.

        On cancellation (the per-request timeout fired, or the client went
        away) the token is cancelled so a running job stops at its next
        chunk boundary, and the ticket is abandoned so a never-started job
        does not leak queue depth.
        """
        ticket = self.metrics.job_ticket()

        def job():
            if not ticket.start():
                raise JobCancelled("job abandoned before a worker picked it up")
            token.raise_if_cancelled()
            return fn()

        future = asyncio.get_running_loop().run_in_executor(None, job)
        # A cancelled request stops awaiting the future; consume its
        # eventual outcome so asyncio never logs an unretrieved exception.
        future.add_done_callback(lambda f: f.cancelled() or f.exception())
        try:
            return await future
        except asyncio.CancelledError:
            token.cancel()
            ticket.abandon()
            raise

    async def _spool_body(self, request: Request, destination: Path) -> Tuple[int, str]:
        """Stream the request body to disk; returns (size, sha256 hex)."""
        digest = hashlib.sha256()
        total = 0
        with destination.open("wb") as spool:
            async for piece in request.iter_body():
                spool.write(piece)
                digest.update(piece)
                total += len(piece)
        self.metrics.add_bytes_in(total)
        return total, digest.hexdigest()

    # -- endpoint handlers -------------------------------------------------------------------
    async def _compress(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        mode, config, params = self._codec_params(request)
        spool = workdir / "trace.bin"
        size, digest = await self._spool_body(request, spool)
        if size == 0:
            raise HttpError(400, "empty trace body (expected little-endian uint64 addresses)")
        if size % ADDRESS_BYTES:
            raise HttpError(
                400,
                f"trace body of {size} bytes is not a multiple of {ADDRESS_BYTES} "
                "(expected packed little-endian uint64 addresses)",
            )

        key = self.cache.key(digest, mode, params)
        entry = self.cache.lookup(key)
        if entry is not None:
            self.metrics.cache_hit()
            cached = "hit"
        else:
            self.metrics.cache_miss()
            cached = "miss"
            workspace = self.cache.workspace(key)

            def encode():
                try:
                    with AtcEncoder(workspace, mode=mode, config=config) as enc:
                        enc.encode_stream(token.guard(iter_raw_chunks(spool)))
                        return enc.addresses_coded
                except BaseException:
                    self.cache.discard_workspace(workspace)
                    raise

            coded = await self._run_job(encode, token)
            entry = self.cache.commit(key, workspace, coded)

        body = pack_container(entry.path)
        return Response(
            status=200,
            headers={
                "Content-Type": CONTAINER_MEDIA_TYPE,
                "X-Atc-Cache": cached,
                "X-Atc-Key": entry.key,
                "X-Atc-Addresses": str(entry.addresses),
            },
            body=body,
        )

    async def _decompress(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        chunk_addresses = self._int_query(request, "chunk_addresses", DEFAULT_CHUNK_ADDRESSES)
        spool = workdir / "container.tar"
        size, _ = await self._spool_body(request, spool)
        if size == 0:
            raise HttpError(400, "empty body (expected a packed container archive)")
        container = workdir / "container"
        unpack_container(spool, container)  # ContainerError -> 400 via dispatch
        decoded = workdir / "trace.bin"

        def decode():
            decoder = AtcDecoder(container, workers=self.config.workers)
            count = 0
            with decoded.open("wb") as sink:
                for chunk in token.guard(decoder.iter_chunks(chunk_addresses)):
                    sink.write(chunk.tobytes())
                    count += len(chunk)
            return count

        count = await self._run_job(decode, token)
        return Response(
            status=200,
            headers={
                "Content-Type": "application/octet-stream",
                "X-Atc-Addresses": str(count),
            },
            body=self._stream_file(decoded),
        )

    async def _inspect(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        spool = workdir / "container.tar"
        size, _ = await self._spool_body(request, spool)
        if size == 0:
            raise HttpError(400, "empty body (expected a packed container archive)")
        container = workdir / "container"
        unpack_container(spool, container)

        def summarize():
            decoder = AtcDecoder(container)
            records = decoder.records
            return {
                "metadata": dict(decoder.metadata),
                "intervals": len(records),
                "imitated_intervals": sum(1 for record in records if record.kind == "imitate"),
                "compressed_bytes": decoder.compressed_bytes(),
                "bits_per_address": decoder.bits_per_address(),
            }

        return _json_response(await self._run_job(summarize, token))

    async def _sweep(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        raw = bytearray()
        async for piece in request.iter_body():
            raw.extend(piece)
        self.metrics.add_bytes_in(len(raw))
        try:
            data = json.loads(bytes(raw).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HttpError(400, f"sweep spec is not valid JSON: {error}") from None
        from repro.experiments import run_sweep, sweep_spec_from_dict

        spec = sweep_spec_from_dict(data)  # ConfigurationError -> 400
        cache_dir = self.cache.directory / "sweeps"

        def run():
            token.raise_if_cancelled()
            result = run_sweep(spec, cache_dir=cache_dir, workers=self.config.workers)
            return json.loads(result.render("json"))

        return _json_response(await self._run_job(run, token))

    async def _healthz(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        import repro

        return _json_response(
            {
                "status": "ok",
                "version": repro.__version__,
                "draining": self.drain.draining,
                "active_connections": self.gate.active,
            }
        )

    async def _metrics(self, request: Request, token: CancelToken, workdir: Path) -> Response:
        return _json_response(self.metrics.snapshot())

    # -- request parameter helpers -----------------------------------------------------------
    def _codec_params(self, request: Request) -> Tuple[str, LossyConfig, Dict]:
        mode = request.query.get("mode", MODE_LOSSLESS)
        if mode not in (MODE_LOSSY, MODE_LOSSLESS):
            raise HttpError(400, f"mode must be '{MODE_LOSSY}' (lossy) or '{MODE_LOSSLESS}', got {mode!r}")
        params = {
            "backend": request.query.get("backend", "bz2"),
            "interval_length": self._int_query(request, "interval_length", 20_000),
            "threshold": self._float_query(request, "threshold", 0.1),
            "chunk_buffer_addresses": self._int_query(request, "chunk_buffer_addresses", 1_000_000),
        }
        config = LossyConfig(workers=self.config.workers, **params)  # invalid values -> 400
        return mode, config, params

    @staticmethod
    def _int_query(request: Request, name: str, default: int) -> int:
        value = request.query.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise HttpError(400, f"query parameter {name} must be an integer, got {value!r}") from None

    @staticmethod
    def _float_query(request: Request, name: str, default: float) -> float:
        value = request.query.get(name)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise HttpError(400, f"query parameter {name} must be a number, got {value!r}") from None

    @staticmethod
    def _stream_file(path: Path) -> AsyncIterator[bytes]:
        async def pieces() -> AsyncIterator[bytes]:
            with path.open("rb") as source:
                while True:
                    piece = source.read(IO_CHUNK_BYTES)
                    if not piece:
                        return
                    yield piece

        return pieces()


class BackgroundServer:
    """Host an :class:`AtcService` on a daemon thread (tests, benchmarks).

    Context-manager protocol: entering starts the server and blocks until
    the listener is bound; exiting triggers a graceful drain and joins the
    thread.  The exit code the server would have returned from ``repro
    serve`` is available as :attr:`exit_code` afterwards.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, startup_timeout: float = 30.0) -> None:
        self.service = AtcService(config or ServiceConfig(port=0))
        self.exit_code: Optional[int] = None
        self._startup_timeout = startup_timeout
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)

    @property
    def port(self) -> int:
        """Bound TCP port (valid once the context has been entered)."""
        if self.service.port is None:
            raise ServiceError("BackgroundServer has not started yet")
        return self.service.port

    @property
    def address(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.service.config.host}:{self.port}"

    def _run(self) -> None:
        try:
            self.exit_code = self.service.run(ready=self._ready.set)
        except BaseException as error:  # surface startup failures to the waiter
            self._error = error
        finally:
            self._ready.set()

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(self._startup_timeout):
            raise ServiceError("service did not start within the startup timeout")
        if self._error is not None:
            raise ServiceError(f"service failed to start: {self._error}") from self._error
        if self.service.port is None:
            raise ServiceError("service stopped before binding its listener")
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop()

    def stop(self, timeout: float = 120.0) -> Optional[int]:
        """Drain gracefully and join the server thread; returns the exit code."""
        self.service.shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ServiceError("service did not drain within the stop timeout")
        return self.exit_code

    def wait_ready(self, timeout: float = 5.0) -> bool:
        """Poll ``/v1/healthz`` over a raw socket until it answers 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with socket.create_connection((self.service.config.host, self.port), timeout=1.0) as sock:
                    sock.sendall(
                        b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
                    )
                    head = sock.recv(64)
                if b" 200 " in head:
                    return True
            except OSError:
                time.sleep(0.05)
        return False
