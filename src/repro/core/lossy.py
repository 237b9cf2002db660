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

:class:`LossyIntervalEncoder` makes that decision, one interval at a time;
:class:`~repro.core.atc.AtcEncoder` compresses the chunks and writes the
container.  Decompression (:class:`~repro.core.atc.AtcDecoder`) walks the
interval trace: chunk records decode the chunk, imitation records decode the
referenced chunk and apply the stored byte translations.  The output has exactly the same number of addresses as the
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
from typing import Optional, Tuple

import numpy as np

from repro.core.backend import get_backend
from repro.core.histograms import (
    IntervalSummary,
    byte_translation,
    translation_active_mask,
)
from repro.core.intervals import ChunkTable, IntervalRecord
from repro.errors import ConfigurationError

__all__ = [
    "LossyConfig",
    "LossyIntervalEncoder",
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


class LossyIntervalEncoder:
    """Interval planner of the streaming :class:`~repro.core.atc.AtcEncoder`.

    Call :meth:`plan_interval` once per interval, in trace order; it
    returns the interval record and whether the interval became a new chunk
    whose payload the caller still has to compress.
    """

    def __init__(self, config: LossyConfig) -> None:
        self.config = config
        self._table = ChunkTable(max_entries=config.max_table_entries)
        self._next_chunk_id = 0

    @property
    def num_chunks(self) -> int:
        """Number of chunks created so far."""
        return self._next_chunk_id

    def plan_interval(self, interval: np.ndarray) -> Tuple[IntervalRecord, bool]:
        """Classify one interval without compressing it.

        Returns ``(record, needs_payload)``.  ``needs_payload`` is True when
        the interval became a new chunk whose payload still has to be
        produced (the encoder's chunk codec compresses it); the caller is free to
        run that compression asynchronously, because the classification of
        later intervals only depends on the histogram summaries recorded
        here, never on the compressed bytes.
        """
        config = self.config
        summary = IntervalSummary.from_addresses(interval)
        match = self._table.best_match(summary)
        if match is not None and match.distance <= config.threshold:
            source_summary = self._table.get(match.chunk_id)
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
            )
            return record, False
        chunk_id = self._next_chunk_id
        self._next_chunk_id += 1
        self._table.add(chunk_id, summary)
        record = IntervalRecord(kind="chunk", chunk_id=chunk_id, length=int(interval.size))
        return record, True
