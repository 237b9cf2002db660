"""Tests of the chunk table and interval records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histograms import IntervalSummary, identity_translation
from repro.core.intervals import ChunkMatch, ChunkTable, IntervalRecord, chunk_lengths
from repro.errors import CodecError, ConfigurationError


def _summary_of(values) -> IntervalSummary:
    return IntervalSummary.from_addresses(np.asarray(values, dtype=np.uint64))


class TestChunkTable:
    def test_empty_table_has_no_match(self):
        table = ChunkTable()
        assert table.best_match(_summary_of(np.arange(100))) is None
        assert len(table) == 0

    def test_add_and_get(self):
        table = ChunkTable()
        summary = _summary_of(np.arange(100))
        table.add(0, summary)
        assert table.get(0) is summary
        assert 0 in table
        assert len(table) == 1

    def test_duplicate_add_rejected(self):
        table = ChunkTable()
        table.add(0, _summary_of(np.arange(10)))
        with pytest.raises(CodecError):
            table.add(0, _summary_of(np.arange(10)))

    def test_get_missing_chunk_raises(self):
        with pytest.raises(CodecError):
            ChunkTable().get(3)

    def test_best_match_picks_smallest_distance(self, rng):
        table = ChunkTable()
        streaming = _summary_of(np.arange(0, 8_000, dtype=np.uint64))
        random_values = _summary_of(rng.integers(0, 1 << 48, size=8_000, dtype=np.uint64))
        table.add(0, streaming)
        table.add(1, random_values)
        probe = _summary_of(np.arange(16_000, 24_000, dtype=np.uint64))
        match = table.best_match(probe)
        assert isinstance(match, ChunkMatch)
        assert match.chunk_id == 0
        assert match.distance < 0.5

    def test_fifo_eviction_of_oldest(self):
        table = ChunkTable(max_entries=2)
        table.add(0, _summary_of(np.arange(10)))
        table.add(1, _summary_of(np.arange(10, 20)))
        table.add(2, _summary_of(np.arange(20, 30)))
        assert 0 not in table
        assert table.chunk_ids == (1, 2)

    def test_unbounded_table_keeps_everything(self):
        table = ChunkTable(max_entries=None)
        for chunk_id in range(50):
            table.add(chunk_id, _summary_of(np.arange(chunk_id, chunk_id + 10)))
        assert len(table) == 50

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            ChunkTable(max_entries=0)

    def test_tie_prefers_oldest_chunk(self):
        table = ChunkTable()
        identical = np.arange(1_000, dtype=np.uint64)
        table.add(0, _summary_of(identical))
        table.add(1, _summary_of(identical))
        match = table.best_match(_summary_of(identical))
        assert match.chunk_id == 0
        assert match.distance == pytest.approx(0.0)


class TestIntervalRecord:
    def test_chunk_record(self):
        record = IntervalRecord(kind="chunk", chunk_id=3, length=100)
        assert record.is_chunk
        assert record.chunk_id == 3

    def test_imitate_record_requires_translations(self):
        with pytest.raises(CodecError):
            IntervalRecord(kind="imitate", chunk_id=0, length=10)

    def test_imitate_record_with_translations(self):
        record = IntervalRecord(
            kind="imitate",
            chunk_id=1,
            length=10,
            active_bytes=np.ones(8, dtype=bool),
            translations=identity_translation(),
        )
        assert not record.is_chunk

    def test_invalid_kind_rejected(self):
        with pytest.raises(CodecError):
            IntervalRecord(kind="copy", chunk_id=0, length=1)

    def test_negative_length_rejected(self):
        with pytest.raises(CodecError):
            IntervalRecord(kind="chunk", chunk_id=0, length=-1)


def test_chunk_lengths_come_from_chunk_records_only():
    translations = identity_translation()
    active = np.zeros(8, dtype=bool)
    records = [
        IntervalRecord("chunk", 0, 500),
        IntervalRecord("imitate", 0, 300, active, translations),
        IntervalRecord("chunk", 1, 120),
        IntervalRecord("imitate", 2, 80, active, translations),
    ]
    assert chunk_lengths(records) == {0: 500, 1: 120}
