"""Tests of the lossy-trace diagnostic reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, compress_trace
from repro.core.inspect import analyze_container
from repro.core.lossy import LossyConfig


@pytest.fixture(scope="module")
def stationary_container(tmp_path_factory):
    rng = np.random.default_rng(42)
    trace = rng.integers(0, 2_048, size=50_000, dtype=np.uint64) + np.uint64(1 << 24)
    directory = tmp_path_factory.mktemp("inspect") / "c"
    decoder = compress_trace(trace, directory, mode=MODE_LOSSY, config=LossyConfig(interval_length=10_000))
    return trace, directory, decoder


class TestAnalyzeContainer:
    def test_counts_match_compression_result(self, stationary_container):
        trace, directory, decoder = stationary_container
        report = analyze_container(directory)
        num_intervals = len(decoder.records)
        num_chunks = decoder.metadata["num_chunks"]
        assert report.num_intervals == num_intervals
        assert report.num_chunks == num_chunks
        assert report.num_imitations == num_intervals - num_chunks
        assert report.original_length == trace.size

    def test_reuse_counts_cover_all_intervals(self, stationary_container):
        _, directory, _ = stationary_container
        report = analyze_container(directory)
        assert sum(report.chunk_reuse_counts.values()) == report.num_intervals
        assert report.most_reused_chunk == 0

    def test_bits_per_address_consistent(self, stationary_container):
        _, directory, decoder = stationary_container
        report = analyze_container(directory)
        assert report.compressed_bytes == decoder.compressed_bytes()
        assert report.bits_per_address == pytest.approx(decoder.bits_per_address())

    def test_imitation_fraction(self, stationary_container):
        _, directory, decoder = stationary_container
        report = analyze_container(directory)
        imitated = sum(record.kind == "imitate" for record in decoder.records)
        assert report.imitation_fraction == pytest.approx(imitated / len(decoder.records))

    def test_translated_byte_histogram_bounded(self, stationary_container):
        _, directory, _ = stationary_container
        report = analyze_container(directory)
        assert len(report.translated_byte_histogram) == 8
        for count in report.translated_byte_histogram:
            assert 0 <= count <= report.num_imitations

    def test_summary_lines_render(self, stationary_container):
        _, directory, _ = stationary_container
        lines = analyze_container(directory).summary_lines()
        assert any("chunks stored" in line for line in lines)
        assert any("bits per address" in line for line in lines)

    def test_empty_trace_report(self, tmp_path):
        config = LossyConfig(interval_length=1_000)
        compress_trace(np.empty(0, dtype=np.uint64), tmp_path / "c", mode=MODE_LOSSY, config=config)
        report = analyze_container(tmp_path / "c")
        assert report.num_intervals == 0
        assert report.bits_per_address == 0.0
        assert report.most_reused_chunk is None

    def test_lossless_container_report(self, tmp_path):
        trace = np.arange(20_000, dtype=np.uint64)
        config = LossyConfig(chunk_buffer_addresses=5_000)
        compress_trace(trace, tmp_path / "c", mode=MODE_LOSSLESS, config=config)
        report = analyze_container(tmp_path / "c")
        assert report.num_imitations == 0
        assert report.num_chunks == 4
        assert report.imitation_fraction == 0.0
