"""Lossy phase-based ATC compression (paper, Section 5).

The trace is cut into intervals of ``interval_length`` addresses.  The first
interval always becomes a *chunk* (stored losslessly with bytesort).  Every
subsequent interval is summarised by its sorted byte-histograms and compared
against the chunks recorded in the in-memory histogram table:

* if the closest chunk is within ``threshold`` (the paper's ``eps = 0.1``),
  the interval is *not* stored; the interval trace only records "imitate
  chunk ``k``" together with the byte translations ``t[j]`` that remap the
  chunk's byte values onto the interval's (only for byte orders whose
  non-sorted histograms actually differ by more than the threshold);
* otherwise a new chunk is created from the interval and added to the table
  (evicting the oldest entry when the table is full).

Decompression walks the interval trace: chunk records decode the chunk,
imitation records decode the referenced chunk and apply the stored byte
translations.  The output has exactly the same number of addresses as the
original trace, and (by construction of the translations) closely matching
spatiotemporal structure, but it is *not* bit-identical — that is the
``lossy`` in lossy compression.

``enable_translation=False`` reproduces the Figure 4 ablation: imitated
intervals are then regenerated as verbatim copies of the chunk, which makes
the apparent working set of random-access traces look much smaller than it
really is (the myopic interval problem the translations exist to fix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backend import get_backend
from repro.core.histograms import (
    IntervalSummary,
    byte_translation,
    translation_active_mask,
)
from repro.core.intervals import ChunkTable, IntervalRecord, materialize_interval
from repro.core.lossless import LosslessCodec
from repro.errors import CodecError, ConfigurationError
from repro.traces.trace import as_address_array

__all__ = [
    "LossyConfig",
    "LossyCompressed",
    "LossyCodec",
    "LossyIntervalEncoder",
    "lossy_compress",
    "lossy_decompress",
    "PAPER_INTERVAL_LENGTH",
    "PAPER_THRESHOLD",
]

#: Interval length used in the paper's Table 3 / Figures 3-5 (10 M addresses).
PAPER_INTERVAL_LENGTH = 10_000_000

#: Threshold the paper found to balance ratio and fidelity.
PAPER_THRESHOLD = 0.1


@dataclass(frozen=True)
class LossyConfig:
    """Configuration of the lossy codec.

    Attributes:
        interval_length: Interval length ``L`` in addresses.
        threshold: Interval-distance threshold ``eps``.
        chunk_buffer_addresses: Bytesort buffer used to compress chunks (the
            paper uses 1 M addresses for chunks regardless of ``L``).
        max_table_entries: Capacity of the in-memory histogram table
            (``None`` = unbounded, the effective setting for the paper's
            experiments where traces have at most a few hundred chunks).
        backend: Byte-level compression back-end for chunks.
        enable_translation: Apply byte translations when imitating (True in
            the paper; False reproduces the Figure 4 ablation).
        workers: Number of chunks compressed concurrently by the streaming
            encoder (and prefetched by the decoder).  ``1`` is fully serial;
            more runs a thread pool of that size (the stdlib codecs release
            the GIL, overlapping chunk compression with trace consumption
            the way the paper's external ``bzip2 -c`` process overlaps with
            the tracer); ``0``/``None`` means one worker per CPU.  Output is
            byte-identical for every worker count; the knob only changes
            wall-clock time and peak memory (bounded at roughly
            ``2 * workers`` in-flight chunks).
    """

    interval_length: int = 20_000
    threshold: float = PAPER_THRESHOLD
    chunk_buffer_addresses: int = 1_000_000
    max_table_entries: Optional[int] = None
    backend: object = "bz2"
    enable_translation: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        from repro.core.parallel import resolve_workers

        if self.interval_length <= 0:
            raise ConfigurationError("interval_length must be positive")
        if not 0.0 <= self.threshold <= 2.0:
            raise ConfigurationError("threshold must lie in [0, 2] (histogram distances do)")
        if self.chunk_buffer_addresses <= 0:
            raise ConfigurationError("chunk_buffer_addresses must be positive")
        # Normalise 0/None to the CPU count once, at construction time.
        object.__setattr__(self, "workers", resolve_workers(self.workers))
        get_backend(self.backend)

    @classmethod
    def paper_defaults(cls, **overrides) -> "LossyConfig":
        """The paper's configuration (L = 10 M, eps = 0.1); override freely."""
        values = dict(
            interval_length=PAPER_INTERVAL_LENGTH,
            threshold=PAPER_THRESHOLD,
            chunk_buffer_addresses=1_000_000,
        )
        values.update(overrides)
        return cls(**values)


@dataclass
class LossyCompressed:
    """In-memory result of lossy compression.

    Attributes:
        config: The configuration the trace was compressed with.
        chunks: Losslessly compressed chunk payloads, indexed by chunk id.
        records: The interval trace, one record per original interval.
        original_length: Number of addresses in the original trace.
    """

    config: LossyConfig
    chunks: List[bytes]
    records: List[IntervalRecord]
    original_length: int

    @property
    def num_chunks(self) -> int:
        """Number of chunks that had to be stored."""
        return len(self.chunks)

    @property
    def num_intervals(self) -> int:
        """Number of intervals in the original trace."""
        return len(self.records)

    def compressed_bytes(self) -> int:
        """Total compressed size: chunk payloads plus the interval trace.

        The interval trace is accounted for with the same representation the
        on-disk container uses (serialised and compressed with the chunk
        back-end), so in-memory sizes and container sizes agree.
        """
        from repro.core.container import serialize_interval_trace

        backend = get_backend(self.config.backend)
        interval_payload = backend.compress(serialize_interval_trace(self.records))
        return sum(len(chunk) for chunk in self.chunks) + len(interval_payload)

    def bits_per_address(self) -> float:
        """Compressed bits per original trace address."""
        if self.original_length == 0:
            return 0.0
        return 8.0 * self.compressed_bytes() / self.original_length


class LossyIntervalEncoder:
    """Incremental interval-by-interval encoder shared by the in-memory codec
    and the streaming :class:`~repro.core.atc.AtcEncoder`.

    Call :meth:`encode_interval` once per interval, in trace order; it
    returns the interval record and, for newly created chunks, the chunk's
    losslessly compressed payload (``None`` for imitated intervals).
    """

    def __init__(self, config: LossyConfig) -> None:
        self.config = config
        self.chunk_codec = LosslessCodec(
            buffer_addresses=config.chunk_buffer_addresses, backend=config.backend
        )
        self._table = ChunkTable(max_entries=config.max_table_entries)
        self._chunk_summaries: Dict[int, IntervalSummary] = {}
        self._next_chunk_id = 0

    @property
    def num_chunks(self) -> int:
        """Number of chunks created so far."""
        return self._next_chunk_id

    def plan_interval(self, interval: np.ndarray) -> Tuple[IntervalRecord, bool]:
        """Classify one interval without compressing it.

        Returns ``(record, needs_payload)``.  ``needs_payload`` is True when
        the interval became a new chunk whose payload still has to be
        produced (``chunk_codec.compress(interval)``); the caller is free to
        run that compression asynchronously, because the classification of
        later intervals only depends on the histogram summaries recorded
        here, never on the compressed bytes.
        """
        config = self.config
        summary = IntervalSummary.from_addresses(interval)
        match = self._table.best_match(summary)
        if match is not None and match.distance <= config.threshold:
            source_summary = self._chunk_summaries[match.chunk_id]
            translations = byte_translation(source_summary, summary)
            active = translation_active_mask(source_summary, summary, config.threshold)
            if not config.enable_translation:
                active = np.zeros_like(active)
            record = IntervalRecord(
                kind="imitate",
                chunk_id=match.chunk_id,
                length=int(interval.size),
                active_bytes=active,
                translations=translations,
                distance=match.distance,
            )
            return record, False
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        self._chunk_summaries[chunk_id] = summary
        self._table.add(chunk_id, summary)
        record = IntervalRecord(kind="chunk", chunk_id=chunk_id, length=int(interval.size))
        return record, True

    def encode_interval(self, interval: np.ndarray) -> Tuple[IntervalRecord, Optional[bytes]]:
        """Encode one interval; returns ``(record, chunk_payload_or_None)``."""
        record, needs_payload = self.plan_interval(interval)
        if not needs_payload:
            return record, None
        return record, self.chunk_codec.compress(interval)


class LossyCodec:
    """Phase-based lossy codec (compression and decompression)."""

    def __init__(self, config: LossyConfig = LossyConfig()) -> None:
        self.config = config
        self._chunk_codec = LosslessCodec(
            buffer_addresses=config.chunk_buffer_addresses, backend=config.backend
        )

    # -- compression -------------------------------------------------------------------
    def compress(self, addresses) -> LossyCompressed:
        """Compress a trace; returns the chunks and the interval trace.

        Interval classification is inherently sequential (each decision
        depends on the chunk table built so far), but chunk payload
        compression is not: the chunk intervals are collected during the
        classification pass and compressed together afterwards, on
        ``config.workers`` threads when more than one is configured.
        """
        values = as_address_array(addresses)
        config = self.config
        encoder = LossyIntervalEncoder(config)
        chunk_intervals: List[np.ndarray] = []
        records: List[IntervalRecord] = []
        for start in range(0, values.size, config.interval_length):
            interval = values[start : start + config.interval_length]
            record, needs_payload = encoder.plan_interval(interval)
            if needs_payload:
                chunk_intervals.append(interval)
            records.append(record)
        chunks = encoder.chunk_codec.compress_many(chunk_intervals, workers=config.workers)
        return LossyCompressed(
            config=config, chunks=chunks, records=records, original_length=int(values.size)
        )

    # -- decompression -------------------------------------------------------------------
    def decompress(self, compressed: LossyCompressed) -> np.ndarray:
        """Regenerate an (approximate) trace from a :class:`LossyCompressed`.

        Chunk payloads are decompressed up front (in parallel when
        ``config.workers > 1``), each exactly once, then the interval trace
        is replayed against the decoded chunks.
        """
        needed = list(dict.fromkeys(record.chunk_id for record in compressed.records))
        for chunk_id in needed:
            if not 0 <= chunk_id < len(compressed.chunks):
                raise CodecError(f"interval trace references unknown chunk {chunk_id}")
        decoded = self._chunk_codec.decompress_many(
            [compressed.chunks[chunk_id] for chunk_id in needed],
            workers=self.config.workers,
        )
        decoded_chunks: Dict[int, np.ndarray] = dict(zip(needed, decoded))

        pieces: List[np.ndarray] = [
            materialize_interval(record, decoded_chunks[record.chunk_id])
            for record in compressed.records
        ]
        if not pieces:
            return np.empty(0, dtype=np.uint64)
        result = np.concatenate(pieces)
        if int(result.size) != compressed.original_length:
            raise CodecError(
                "decompressed length does not match the recorded original length "
                f"({result.size} vs {compressed.original_length})"
            )
        return result


def lossy_compress(addresses, config: LossyConfig = LossyConfig()) -> LossyCompressed:
    """One-shot lossy compression.

    Example:
        >>> import numpy as np
        >>> trace = np.arange(6000, dtype=np.uint64) % 800      # stationary stream
        >>> config = LossyConfig(interval_length=2000, chunk_buffer_addresses=2000)
        >>> compressed = lossy_compress(trace, config)
        >>> compressed.num_chunks, compressed.num_intervals     # later intervals imitate
        (1, 3)
        >>> len(lossy_decompress(compressed)) == len(trace)     # length always preserved
        True
    """
    return LossyCodec(config).compress(addresses)


def lossy_decompress(compressed: LossyCompressed) -> np.ndarray:
    """One-shot lossy decompression.

    See :func:`lossy_compress` for a round-trip example; the output has the
    original length but is only structurally, not bit-, exact.
    """
    return LossyCodec(compressed.config).decompress(compressed)
