"""Interval bookkeeping for the lossy compression scheme (Section 5.2).

The online lossy scheme keeps a *histogram table* in memory: "Each time we
create a chunk, we record an entry for it in a histogram table in memory,
where we store the histograms for that chunk.  When the table is full, we
evict the entry belonging to the oldest chunk."  :class:`ChunkTable`
implements that FIFO-bounded table plus the nearest-chunk search used to
decide whether a new interval is stored as a chunk or imitated.

The interval descriptors that make up the compressed "interval trace" are
modelled by :class:`IntervalRecord`: an interval is either a reference to a
stored chunk (the chunk *is* the interval, compressed losslessly) or an
imitation of a chunk together with the byte translations needed to remap the
chunk's addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.histograms import (
    IntervalSummary,
    _check_out,
    _normalised_rows,
    apply_translation,
)
from repro.errors import CodecError, ConfigurationError
from repro.traces.trace import ADDRESS_BYTES

__all__ = ["ChunkMatch", "ChunkTable", "IntervalRecord", "chunk_lengths", "materialize_interval"]


def _check_source(record: "IntervalRecord", source: np.ndarray) -> None:
    """Refuse a record longer than the decoded chunk it replays."""
    if record.length > source.size:
        raise CodecError(
            f"interval of length {record.length} references a chunk with only "
            f"{source.size} addresses"
        )


def materialize_interval(
    record: "IntervalRecord", source: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Regenerate one interval from its (decoded) source chunk.

    This is the decoder's single replay step: truncate the chunk to the
    interval length and, for imitation records, apply the stored byte
    translations.  ``source`` is never written (the decoder caches it).

    With ``out`` (a writable contiguous ``uint64`` array of ``record.length``
    addresses) the interval is written there and ``out`` is returned.
    Without it, a chunk record returns a view of ``source`` and an
    imitation record a new array.
    """
    _check_source(record, source)
    piece = source[: record.length]
    if record.kind == "imitate":
        return apply_translation(piece, record.translations, record.active_bytes, out=out)
    if out is None:
        return piece
    _check_out(out, piece.size)
    out[...] = piece
    return out


@dataclass(frozen=True)
class ChunkMatch:
    """Result of a nearest-chunk lookup."""

    chunk_id: int
    distance: float


class ChunkTable:
    """FIFO-bounded table of chunk interval summaries.

    Besides the summaries, the table keeps every resident chunk's sorted
    histograms, normalised, as one row of an ``(N, 8, 256)`` buffer in
    insertion order, so :meth:`best_match` is one array pass over all
    chunks.  The buffer doubles when full and eviction advances its start
    row, so adds cost amortised constant time.

    Args:
        max_entries: Maximum number of chunk summaries kept in memory; when
            the table is full the oldest chunk's entry is evicted (the chunk
            itself stays on disk, it just can no longer be matched against).
            ``None`` means unbounded.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: Dict[int, IntervalSummary] = {}
        # Rows [_start, _stop) of _rows are the resident chunks in _entries order.
        self._rows = np.empty((0, ADDRESS_BYTES, 256))
        self._start = self._stop = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._entries

    @property
    def chunk_ids(self) -> Tuple[int, ...]:
        """Chunk ids currently resident, oldest first."""
        return tuple(self._entries)

    def add(self, chunk_id: int, summary: IntervalSummary) -> None:
        """Record the summary of a newly created chunk, evicting the oldest."""
        if chunk_id in self._entries:
            raise CodecError(f"chunk {chunk_id} is already in the table")
        if len(self._entries) == self.max_entries:
            del self._entries[next(iter(self._entries))]
            self._start += 1
        if self._stop == len(self._rows):
            self._regrow()
        self._rows[self._stop] = _normalised_rows(summary.sorted_histograms)
        self._stop += 1
        self._entries[chunk_id] = summary

    def _regrow(self) -> None:
        """Copy the resident rows to the front of a buffer twice their number."""
        live = self._stop - self._start
        capacity = max(8, 2 * live)
        rows = np.empty((capacity, ADDRESS_BYTES, 256))
        rows[:live] = self._rows[self._start : self._stop]
        self._rows, self._start, self._stop = rows, 0, live

    def get(self, chunk_id: int) -> IntervalSummary:
        """Return the stored summary of ``chunk_id``."""
        try:
            return self._entries[chunk_id]
        except KeyError:
            raise CodecError(f"chunk {chunk_id} is not in the table") from None

    def best_match(self, summary: IntervalSummary) -> Optional[ChunkMatch]:
        """Find the resident chunk with the smallest distance to ``summary``.

        Returns ``None`` when the table is empty.  When several chunks tie,
        the oldest one wins (deterministic, matches the insertion scan order
        of the paper's single-pass algorithm).  Each distance is
        bit-identical to :func:`~repro.core.histograms.interval_distance`.
        """
        if not self._entries:
            return None
        probe = _normalised_rows(summary.sorted_histograms)
        distances = np.abs(self._rows[self._start : self._stop] - probe).sum(axis=2).max(axis=1)
        best = int(distances.argmin())  # the first minimum, i.e. the oldest tied chunk
        return ChunkMatch(chunk_id=self.chunk_ids[best], distance=float(distances[best]))


@dataclass(frozen=True)
class IntervalRecord:
    """One entry of the compressed interval trace.

    Attributes:
        kind: ``"chunk"`` when the interval was stored losslessly as a new
            chunk; ``"imitate"`` when it is regenerated from a stored chunk.
        chunk_id: The chunk that holds (or imitates) this interval.
        length: Number of addresses in the interval (the last interval of a
            trace may be shorter than the nominal interval length).
        active_bytes: For imitation records, the per-byte-order flags saying
            which byte orders are translated; ``None`` for chunk records.
        translations: For imitation records, the ``(8, 256)`` byte
            translation table; ``None`` for chunk records.
    """

    kind: str
    chunk_id: int
    length: int
    active_bytes: Optional[np.ndarray] = None
    translations: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("chunk", "imitate"):
            raise CodecError(f"invalid interval record kind {self.kind!r}")
        if self.length < 0:
            raise CodecError("interval length cannot be negative")
        if self.kind == "imitate":
            if self.translations is None or self.active_bytes is None:
                raise CodecError("imitation records need translations and an active mask")

    @property
    def is_chunk(self) -> bool:
        """True when the interval is stored as its own chunk."""
        return self.kind == "chunk"


def chunk_lengths(records: Iterable[IntervalRecord]) -> Dict[int, int]:
    """``{chunk_id: address count}`` of every chunk a ``"chunk"`` record stores.

    A stored chunk holds exactly its interval, so this is the count each
    chunk payload's header must declare.
    """
    lengths: Dict[int, int] = {}
    for record in records:
        if record.is_chunk:
            lengths.setdefault(record.chunk_id, record.length)
    return lengths
