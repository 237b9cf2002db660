"""The ATC compressor facade: streaming single-pass compression to disk.

This is the reproduction of the paper's Section 6 API.  The C original
exposes four functions — ``atc_open``, ``atc_code``, ``atc_decode`` and
``atc_close`` — where the open mode selects lossy compression (``'k'``),
lossless compression (``'c'``) or decompression (``'d'``).  Here the same
workflow is expressed with two context-manager classes plus convenience
one-shot functions:

* :class:`AtcEncoder` — feed it 64-bit values one at a time (or in bulk);
  it buffers one interval (lossy mode) or one bytesort buffer (lossless
  mode) in memory, compresses at each boundary and writes chunk files and
  the INFO stream into a container directory.
* :class:`AtcDecoder` — iterate over the decoded values of a container, or
  read them all at once.
* :func:`atc_open` — literal translation of the paper's entry point for
  users who want the C-flavoured API.
* :func:`compress_trace` / :func:`decompress_trace` — one-shot helpers used
  by the benchmark harness and the CLI.

Lossless mode reuses the same container layout: every bytesort buffer
becomes its own chunk and the interval trace contains only "chunk" records,
so a lossless container is simply a lossy container that never imitates.
"""

from __future__ import annotations

import contextlib
import tempfile
from collections import OrderedDict
from concurrent.futures import wait
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.container import FORMAT_VERSION, AtcContainer
from repro.core.integrity import chunk_digest, parse_chunk_digests
from repro.core.intervals import (
    IntervalRecord,
    _check_source,
    chunk_lengths,
    materialize_interval,
)
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig, LossyIntervalEncoder
from repro.core.parallel import OrderedChunkWriter, _Call, _process_pool, map_ordered, resolve_workers
from repro.errors import CodecError, ConfigurationError, IntegrityError
from repro.traces.trace import (
    DEFAULT_CHUNK_ADDRESSES,
    AddressTrace,
    as_address_array,
    check_chunk_addresses,
)

__all__ = [
    "MODE_LOSSY",
    "MODE_LOSSLESS",
    "MODE_DECODE",
    "AtcEncoder",
    "AtcDecoder",
    "atc_open",
    "compress_trace",
    "decompress_trace",
    "compress_stream",
    "decompress_stream",
]

#: Paper's ``atc_open`` mode characters.
MODE_LOSSY = "k"
MODE_LOSSLESS = "c"
MODE_DECODE = "d"


class AtcEncoder:
    """Streaming single-pass ATC compressor writing a container directory.

    Args:
        directory: Container directory to create.
        mode: ``"k"`` for lossy compression, ``"c"`` for lossless.
        config: Lossy configuration (interval length, threshold, back-end).
            In lossless mode only ``chunk_buffer_addresses`` and ``backend``
            are used (each bytesort buffer becomes a chunk).  Its
            ``workers`` field sets the chunks compressed at once on the
            process-wide thread pool (``1`` runs inline); containers are
            byte-identical for every worker count.

    The container is always written in format v2: a digest per chunk plus
    an INFO footer digest, so every decode path verifies the bytes it
    reads.  v1 containers stay readable.
    """

    def __init__(
        self,
        directory,
        mode: str = MODE_LOSSY,
        config: Optional[LossyConfig] = None,
    ) -> None:
        if mode not in (MODE_LOSSY, MODE_LOSSLESS):
            raise ConfigurationError(f"encoder mode must be 'k' or 'c', got {mode!r}")
        self.mode = mode
        self.config = config if config is not None else LossyConfig()
        self.container = AtcContainer(directory, backend=self.config.backend, create=True)
        self._records: List[IntervalRecord] = []
        self._total = 0
        self._closed = False
        self._chunk_codec = LosslessCodec(
            buffer_addresses=self.config.chunk_buffer_addresses, backend=self.config.backend
        )
        if mode == MODE_LOSSY:
            self._interval_encoder = LossyIntervalEncoder(self.config)
            self._flush_threshold = self.config.interval_length
        else:
            self._interval_encoder = None
            self._flush_threshold = self.config.chunk_buffer_addresses
        # Preallocated interval buffer: values fed one at a time accumulate
        # here, and every interval is encoded from a zero-copy view (of this
        # buffer, or of the caller's array in :meth:`code_many`).
        self._buffer = np.empty(self._flush_threshold, dtype=np.uint64)
        self._buffered = 0
        # Ordered parallel chunk pipeline: chunk payloads are compressed on
        # the process pool and written back to the container in submission
        # order; on the serial default it runs inline.  The write callback
        # runs on the caller's thread either way, so digest collection here
        # is race-free.
        self._chunk_digests: Dict[int, str] = {}
        self._pipeline = OrderedChunkWriter(self._write_chunk, workers=self.config.workers)

    def _write_chunk(self, chunk_id: int, payload: bytes):
        self._chunk_digests[chunk_id] = chunk_digest(payload)
        return self.container.write_chunk(chunk_id, payload)

    # -- context manager ------------------------------------------------------------------
    def __enter__(self) -> "AtcEncoder":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            # Mark the encoder closed before dropping in-flight chunks: a
            # later close() must not write an INFO stream that references
            # chunk files the cancel threw away.
            self._closed = True
            self._pipeline.cancel()

    # -- encoding --------------------------------------------------------------------------
    def code(self, value: int) -> None:
        """Feed one 64-bit value (the paper's ``atc_code``)."""
        if self._closed:
            raise CodecError("cannot code values after the encoder was closed")
        self._buffer[self._buffered] = value
        self._buffered += 1
        self._total += 1
        if self._buffered >= self._flush_threshold:
            self._flush_buffer()

    def code_many(self, values) -> None:
        """Feed many values at once (bulk variant of :meth:`code`).

        Full intervals are encoded directly from views of the input array
        (no per-interval copies); only the partial head and tail go through
        the preallocated interval buffer.
        """
        if self._closed:
            raise CodecError("cannot code values after the encoder was closed")
        array = as_address_array(values)
        size = int(array.size)
        self._total += size
        threshold = self._flush_threshold
        offset = 0
        if self._buffered:
            # Top up the partially filled buffer first.
            take = min(threshold - self._buffered, size)
            self._buffer[self._buffered : self._buffered + take] = array[:take]
            self._buffered += take
            offset = take
            if self._buffered >= threshold:
                self._flush_buffer()
        while size - offset >= threshold:
            self._encode_interval(array[offset : offset + threshold])
            offset += threshold
        tail = size - offset
        if tail:
            self._buffer[:tail] = array[offset:]
            self._buffered = tail

    def encode_stream(self, chunks) -> int:
        """Feed every chunk of an address-chunk stream to the encoder.

        ``chunks`` is any iterable of ``uint64`` arrays (the streaming
        pipeline's currency — see :mod:`repro.core.stream`).  Chunks are
        consumed lazily one at a time, so peak memory is bounded by the
        chunk size plus the encoder's interval buffer, never the trace
        length.  The resulting container is byte-identical to calling
        :meth:`code_many` on the concatenated chunks, for every chunking.

        Returns the number of addresses consumed from the stream.
        """
        before = self._total
        for chunk in chunks:
            self.code_many(chunk)
        return self._total - before

    def _flush_buffer(self) -> None:
        if not self._buffered:
            return
        interval = self._buffer[: self._buffered]
        self._encode_interval(interval)
        self._buffered = 0

    def _encode_interval(self, interval: np.ndarray) -> None:
        """Classify one interval and queue its chunk payload, if any.

        ``interval`` may be a view of the reusable buffer or of caller
        memory; when compression is deferred to the thread pool the interval
        is copied first, so the view can be reused immediately.
        """
        if self.mode == MODE_LOSSY:
            record, needs_payload = self._interval_encoder.plan_interval(interval)
            self._records.append(record)
            if not needs_payload:
                return
            chunk_id = record.chunk_id
        else:
            chunk_id = len(self._records)
            self._records.append(
                IntervalRecord(kind="chunk", chunk_id=chunk_id, length=int(interval.size))
            )
        if self._pipeline.pool is not None:
            # A thread pool holds a reference to the caller's memory past
            # submit; the inline path is done with it on return, so only
            # the thread path pays for an owned copy.
            interval = np.array(interval, dtype=np.uint64, copy=True)
        self._pipeline.submit(chunk_id, self._chunk_codec.compress, interval)

    def close(self) -> None:
        """Flush the pending interval, drain the pipeline, write INFO."""
        if self._closed:
            return
        self._flush_buffer()
        self._pipeline.close()
        metadata = {
            "format": "atc",
            "format_version": FORMAT_VERSION,
            "mode": "lossy" if self.mode == MODE_LOSSY else "lossless",
            "backend": self.container.backend.name,
            "original_length": self._total,
            "interval_length": self.config.interval_length,
            "threshold": self.config.threshold,
            "chunk_buffer_addresses": self.config.chunk_buffer_addresses,
            "enable_translation": bool(self.config.enable_translation),
            "num_chunks": len(self.container.chunk_ids()),
            "chunk_digests": {
                str(chunk_id): digest for chunk_id, digest in sorted(self._chunk_digests.items())
            },
        }
        self.container.write_info(metadata, self._records)
        self._closed = True

    # -- diagnostics ---------------------------------------------------------------------
    @property
    def addresses_coded(self) -> int:
        """Number of values fed to the encoder so far."""
        return self._total


class AtcDecoder:
    """Decoder for ATC container directories (lossy or lossless).

    Args:
        directory: Container directory to read; its back-end is the one
            its ``INFO.<name>`` file suffix names.
        workers: Chunk parallelism of the decode: with more than one,
            chunks are read and decompressed on the process-wide thread
            pool (up to ``2 * workers`` ahead while iterating); ``1`` is
            fully serial, ``0``/``None`` means one worker per CPU.  The
            decoded output never depends on the worker count.
        cache_chunks: Capacity of the decoded-chunk LRU cache.  Lossy
            containers reference the same chunk from many imitation
            records, so a small bounded cache replaces re-decoding without
            the unbounded memory growth a plain dict would have.
    """

    #: Default capacity of the decoded-chunk LRU cache.
    DEFAULT_CACHE_CHUNKS = 16

    def __init__(
        self,
        directory,
        workers: int = 1,
        cache_chunks: int = DEFAULT_CACHE_CHUNKS,
    ) -> None:
        self.container = AtcContainer.open(directory)
        metadata, records = self.container.read_info()
        self.metadata = metadata
        self.records = records
        self._chunk_codec = LosslessCodec(
            buffer_addresses=metadata.get("chunk_buffer_addresses", 1_000_000),
            backend=self.container.backend,
        )
        self._chunk_digests = parse_chunk_digests(metadata)
        self._chunk_lengths = chunk_lengths(records)
        self._workers = resolve_workers(workers)
        if cache_chunks < 1:
            raise ConfigurationError("cache_chunks must be >= 1")
        # The prefetch lookahead must fit in the cache, or a prefetched
        # chunk could be evicted before its interval is reached.
        self._lookahead = 2 * self._workers
        self._cache_capacity = max(int(cache_chunks), self._lookahead)
        self._chunk_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()

    # -- decoding ---------------------------------------------------------------------------
    def _load_chunk(self, chunk_id: int) -> np.ndarray:
        """Read, digest-check and decompress one chunk (pure; safe off-thread).

        The single funnel for every decode path (LRU cache, prefetch, bulk
        ``read_all``): the raw bytes are checked against the recorded digest
        first, and a chunk that then still fails to decompress is reported
        as :class:`~repro.errors.IntegrityError` naming the file and chunk
        rather than leaking a codec exception.  The chunk's header must
        declare the address count its interval record gives, and bounds
        decompression to that many addresses.  The decoded chunk is
        read-only: the LRU cache hands it to every later record, so a
        caller writing into an :meth:`iter_intervals` view must fail rather
        than corrupt later decodes.
        """
        container = self.container
        payload = container.read_chunk(chunk_id, expected_digest=self._chunk_digests.get(chunk_id))
        try:
            decoded = self._chunk_codec.decompress(payload, self._chunk_lengths.get(chunk_id))
        except CodecError as exc:
            target = container.chunk_path(chunk_id)
            raise IntegrityError(
                f"{target}: chunk {chunk_id + 1} is corrupt: {exc}",
                path=target,
                chunk_id=chunk_id,
            ) from exc
        decoded.flags.writeable = False
        return decoded

    def _store_chunk(self, chunk_id: int, decoded: np.ndarray) -> None:
        cache = self._chunk_cache
        cache[chunk_id] = decoded
        cache.move_to_end(chunk_id)
        while len(cache) > self._cache_capacity:
            cache.popitem(last=False)

    def _chunk_addresses(self, chunk_id: int) -> np.ndarray:
        cache = self._chunk_cache
        if chunk_id in cache:
            cache.move_to_end(chunk_id)
            return cache[chunk_id]
        decoded = self._load_chunk(chunk_id)
        self._store_chunk(chunk_id, decoded)
        return decoded

    def _iter_sources(self) -> Iterator[Tuple[IntervalRecord, np.ndarray]]:
        """Yield every record with its decoded source chunk, in order.

        Chunks come through the bounded LRU cache.  With ``workers > 1``
        the chunks of the next ``2 * workers`` records are prefetched — read
        and decompressed — on the process pool while earlier records are
        being replayed; the pairs are the same either way.  A stream closed
        early cancels its unstarted loads and waits for the started ones.
        """
        pool = _process_pool() if self._workers > 1 and len(self.records) > 1 else None
        if pool is None:
            for record in self.records:
                yield record, self._chunk_addresses(record.chunk_id)
            return
        loads: Dict[int, _Call] = {}
        try:
            for index, record in enumerate(self.records):
                for upcoming in self.records[index : index + self._lookahead]:
                    chunk_id = upcoming.chunk_id
                    if chunk_id not in loads and chunk_id not in self._chunk_cache:
                        loads[chunk_id] = _Call(pool, self._load_chunk, chunk_id)
                load = loads.pop(record.chunk_id, None)
                if load is not None:
                    self._store_chunk(record.chunk_id, load.result())
                yield record, self._chunk_addresses(record.chunk_id)
        finally:
            for load in loads.values():
                load.cancel()
            wait([load.future for load in loads.values()])

    def _fill(self, sources, chunk_addresses: int) -> Iterator[np.ndarray]:
        """Write every record of ``sources`` into owned output arrays.

        Yields arrays of exactly ``chunk_addresses`` addresses (the last one
        shorter), each newly allocated and never touched again, so callers
        may keep or write into them.  A record that fits the current array
        is materialized straight into it; one that straddles arrays is
        materialized once and copied across.  Each allocation is capped at
        the addresses the records still promise, never sized from
        ``chunk_addresses`` alone; the records must add up to the INFO
        ``original_length`` (as ``read_info`` checks) before anything is
        allocated.
        """
        remaining = sum(record.length for record in self.records)
        expected = self.metadata.get("original_length", remaining)
        if remaining != expected:
            raise CodecError(
                f"container decodes to {remaining} addresses but INFO records {expected}"
            )
        chunk = np.empty(min(chunk_addresses, remaining), dtype=np.uint64)
        filled = 0
        for record, source in sources:
            length = record.length
            if length <= chunk.size - filled:
                materialize_interval(record, source, out=chunk[filled : filled + length])
                filled += length
            else:
                piece = materialize_interval(record, source)
                offset = chunk.size - filled
                chunk[filled:] = piece[:offset]
                while offset < length:
                    yield chunk
                    remaining -= chunk.size
                    chunk = np.empty(min(chunk_addresses, remaining), dtype=np.uint64)
                    filled = min(chunk.size, length - offset)
                    chunk[:filled] = piece[offset : offset + filled]
                    offset += filled
            if filled and filled == chunk.size:
                yield chunk
                remaining -= chunk.size
                chunk = np.empty(min(chunk_addresses, remaining), dtype=np.uint64)
                filled = 0

    def iter_intervals(self) -> Iterator[np.ndarray]:
        """Yield the decoded address array of every interval, in order.

        With ``workers > 1`` the chunks of upcoming intervals are
        prefetched on the process pool; the yielded sequence is identical to
        the serial one.  A chunk interval is a read-only view of the
        decoder's cached chunk.
        """
        for record, source in self._iter_sources():
            yield materialize_interval(record, source)

    def iter_chunks(self, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES) -> Iterator[np.ndarray]:
        """Yield the decoded trace as fixed-size address chunks, in order.

        Every chunk except possibly the last has exactly ``chunk_addresses``
        addresses and owns its memory, and the concatenated chunks are
        byte-identical to :meth:`read_all` (for a lossy container, the
        approximate decoded trace) without ever materialising the whole
        trace.  Peak memory is bounded by one output chunk (at most the
        container's length), one decoded interval and the chunk cache.
        """
        return self._fill(self._iter_sources(), check_chunk_addresses(chunk_addresses))

    def __iter__(self) -> Iterator[int]:
        """Iterate over individual decoded values (the paper's ``atc_decode`` loop)."""
        for interval in self.iter_intervals():
            for value in interval.tolist():
                yield value

    def read_all(self) -> np.ndarray:
        """Decode the whole container into one address array.

        Every referenced chunk is loaded exactly once (in parallel with
        ``workers > 1``), bypassing the bounded LRU cache: ``read_all``
        materialises the whole trace anyway, so holding each decoded chunk
        for the duration of the call costs no extra asymptotic memory and
        avoids re-decoding when a container references more chunks than the
        cache holds.  Every record is checked against its decoded chunk
        before the result is allocated; each is then written straight into
        it.
        """
        needed = list(dict.fromkeys(record.chunk_id for record in self.records))
        decoded = {
            chunk_id: self._chunk_cache[chunk_id]
            for chunk_id in needed
            if chunk_id in self._chunk_cache
        }
        missing = [chunk_id for chunk_id in needed if chunk_id not in decoded]
        decoded.update(zip(missing, map_ordered(self._load_chunk, missing, self._workers)))
        sources = [(record, decoded[record.chunk_id]) for record in self.records]
        for record, source in sources:
            _check_source(record, source)
        total = sum(record.length for record in self.records)
        return next(self._fill(sources, total), np.empty(0, dtype=np.uint64))

    # -- diagnostics ---------------------------------------------------------------------
    @property
    def is_lossy(self) -> bool:
        """True when the container was written in lossy mode."""
        return self.metadata.get("mode") == "lossy"

    @property
    def format_version(self) -> int:
        """Container format version (1 = unchecked, 2 = digest-protected)."""
        return self.metadata.get("format_version", 1)

    @property
    def chunk_digests(self) -> Dict[int, str]:
        """Recorded per-chunk digests (empty for a v1 container)."""
        return dict(self._chunk_digests)

    def compressed_bytes(self) -> int:
        """Total on-disk size of the container."""
        return self.container.total_bytes()

    def bits_per_address(self) -> float:
        """On-disk bits per original address."""
        count = self.metadata.get("original_length", 0)
        if count == 0:
            return 0.0
        return 8.0 * self.compressed_bytes() / count


def atc_open(
    directory,
    mode: str,
    config: Optional[LossyConfig] = None,
    workers: int = 1,
) -> Union[AtcEncoder, AtcDecoder]:
    """Open an ATC container, mirroring the paper's ``atc_open`` entry point.

    Args:
        directory: Container directory.
        mode: ``"k"`` (lossy compression), ``"c"`` (lossless compression) or
            ``"d"`` (decompression).
        config: Codec configuration for the compression modes (its
            ``workers`` field controls encoder parallelism).
        workers: Chunk-prefetch parallelism for decode mode.
    """
    if mode == MODE_DECODE:
        return AtcDecoder(directory, workers=workers)
    if mode in (MODE_LOSSY, MODE_LOSSLESS):
        return AtcEncoder(directory, mode=mode, config=config)
    raise ConfigurationError(f"atc_open mode must be 'k', 'c' or 'd', got {mode!r}")


def compress_trace(
    addresses,
    directory,
    mode: str = MODE_LOSSY,
    config: Optional[LossyConfig] = None,
) -> AtcDecoder:
    """Compress a whole trace to a container directory and return a decoder.

    Returning the decoder gives immediate access to the on-disk size and the
    decoded (possibly approximate) trace, which is what the benchmark
    harness needs after each compression run.

    Example:
        >>> import numpy as np, tempfile, os
        >>> trace = np.arange(5000, dtype=np.uint64) % 600
        >>> directory = os.path.join(tempfile.mkdtemp(), "container")
        >>> config = LossyConfig(interval_length=1000, chunk_buffer_addresses=1000)
        >>> decoder = compress_trace(trace, directory, mode="c", config=config)
        >>> bool(np.array_equal(decoder.read_all(), trace))      # "c" is lossless
        True
        >>> bool(np.array_equal(decompress_trace(directory), trace))
        True
    """
    values = addresses.addresses if isinstance(addresses, AddressTrace) else as_address_array(addresses)
    config = config if config is not None else LossyConfig()
    with AtcEncoder(directory, mode=mode, config=config) as encoder:
        encoder.code_many(values)
    return AtcDecoder(directory, workers=config.workers)


@contextlib.contextmanager
def _container_round_trip(addresses, mode: str, config: LossyConfig) -> Iterator[AtcDecoder]:
    """Compress a trace into a scratch container and yield its decoder.

    The measurement path of sweeps, the paper benches and the fidelity
    pipelines, so every size they report is the size ``repro compress``
    writes.  The container is deleted when the block exits.
    """
    with tempfile.TemporaryDirectory(prefix="repro-measure-") as scratch:
        yield compress_trace(addresses, Path(scratch) / "container", mode, config)


def decompress_trace(directory, workers: int = 1) -> np.ndarray:
    """Decode an ATC container directory into an address array."""
    return AtcDecoder(directory, workers=workers).read_all()


def compress_stream(
    chunks,
    directory,
    mode: str = MODE_LOSSY,
    config: Optional[LossyConfig] = None,
) -> AtcDecoder:
    """Compress an address-chunk stream to a container and return a decoder.

    The streaming counterpart of :func:`compress_trace`: ``chunks`` is any
    iterable of ``uint64`` arrays, consumed one chunk at a time, so the
    whole trace is never materialised.  The container is byte-identical to
    ``compress_trace(concatenated_chunks, ...)`` for every chunking.
    """
    config = config if config is not None else LossyConfig()
    with AtcEncoder(directory, mode=mode, config=config) as encoder:
        encoder.encode_stream(chunks)
    return AtcDecoder(directory, workers=config.workers)


def decompress_stream(
    directory, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES, workers: int = 1
) -> Iterator[np.ndarray]:
    """Decode an ATC container as a bounded-memory address-chunk stream.

    The streaming counterpart of :func:`decompress_trace`: the concatenated
    chunks equal ``decompress_trace(directory)`` exactly, but peak memory
    is bounded by the chunk size plus one decoded interval.
    """
    return AtcDecoder(directory, workers=workers).iter_chunks(chunk_addresses)
