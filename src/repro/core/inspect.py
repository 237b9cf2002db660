"""Diagnostics for lossy-compressed traces.

The compression ratio and fidelity of ATC's lossy mode depend on how often
intervals can be imitated, which chunks get reused, and how much of the
compressed size each component (chunks vs interval trace) accounts for.
This module computes those statistics from an on-disk container, so users
can answer "why is my trace not compressing?" without reverse engineering
the format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.atc import AtcDecoder

__all__ = ["LossyTraceReport", "analyze_container"]


@dataclass(frozen=True)
class LossyTraceReport:
    """Summary statistics of a lossy-compressed trace.

    Attributes:
        num_intervals: Total intervals in the trace.
        num_chunks: Intervals stored losslessly as chunks.
        num_imitations: Intervals regenerated from a chunk.
        chunk_reuse_counts: How many intervals each chunk serves (including
            itself), keyed by chunk id.
        translated_byte_histogram: For each byte order j, the number of
            imitation records that actually translated byte j.
        chunk_bytes: Compressed bytes spent on chunk payloads.
        interval_trace_bytes: Compressed bytes spent on the interval trace.
        original_length: Number of addresses in the original trace.
    """

    num_intervals: int
    num_chunks: int
    num_imitations: int
    chunk_reuse_counts: Dict[int, int]
    translated_byte_histogram: List[int]
    chunk_bytes: int
    interval_trace_bytes: int
    original_length: int

    @property
    def imitation_fraction(self) -> float:
        """Fraction of intervals that were imitated rather than stored."""
        if self.num_intervals == 0:
            return 0.0
        return self.num_imitations / self.num_intervals

    @property
    def compressed_bytes(self) -> int:
        """Total compressed size (chunks + interval trace)."""
        return self.chunk_bytes + self.interval_trace_bytes

    @property
    def bits_per_address(self) -> float:
        """Compressed bits per original address."""
        if self.original_length == 0:
            return 0.0
        return 8.0 * self.compressed_bytes / self.original_length

    @property
    def most_reused_chunk(self) -> Optional[int]:
        """Chunk id serving the most intervals (None for an empty trace)."""
        if not self.chunk_reuse_counts:
            return None
        return max(self.chunk_reuse_counts, key=self.chunk_reuse_counts.get)

    def summary_lines(self) -> List[str]:
        """Human-readable multi-line summary (used by ``atc-inspect``-style tools)."""
        lines = [
            f"intervals          : {self.num_intervals}",
            f"chunks stored      : {self.num_chunks}",
            f"imitated intervals : {self.num_imitations} ({self.imitation_fraction:.0%})",
            f"chunk bytes        : {self.chunk_bytes}",
            f"interval-trace b.  : {self.interval_trace_bytes}",
            f"bits per address   : {self.bits_per_address:.3f}",
        ]
        if self.most_reused_chunk is not None:
            lines.append(
                f"most reused chunk  : #{self.most_reused_chunk} "
                f"({self.chunk_reuse_counts[self.most_reused_chunk]} intervals)"
            )
        return lines


def analyze_container(directory) -> LossyTraceReport:
    """Build a report from an on-disk ATC container (lossy or lossless)."""
    decoder = AtcDecoder(directory)
    chunk_bytes = sum(
        len(decoder.container.read_chunk(chunk_id)) for chunk_id in decoder.container.chunk_ids()
    )
    reuse: Dict[int, int] = {}
    translated = np.zeros(8, dtype=np.int64)
    num_imitations = 0
    for record in decoder.records:
        reuse[record.chunk_id] = reuse.get(record.chunk_id, 0) + 1
        if record.kind == "imitate":
            num_imitations += 1
            translated += np.asarray(record.active_bytes, dtype=bool)
    return LossyTraceReport(
        num_intervals=len(decoder.records),
        num_chunks=len(decoder.records) - num_imitations,
        num_imitations=num_imitations,
        chunk_reuse_counts=reuse,
        translated_byte_histogram=translated.tolist(),
        chunk_bytes=chunk_bytes,
        interval_trace_bytes=max(decoder.compressed_bytes() - chunk_bytes, 0),
        original_length=decoder.metadata.get("original_length", 0),
    )
