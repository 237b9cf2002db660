"""Streaming-vs-in-memory equivalence tests.

The streaming pipeline's hard invariant is byte-identity: for every stage
(chunk plumbing, cache miss stream, cache filter, ATC encoder and
decoder) and for every
chunk size and worker count, the
concatenated streaming output must equal the in-memory output exactly.
These tests pin that invariant for chunk sizes 1 (every boundary between
consecutive addresses), 7 (never aligned with any internal buffer) and
4096 (larger than most test traces' natural pieces).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import CacheConfig, SetAssociativeCache
from repro.core.atc import (
    MODE_LOSSLESS,
    MODE_LOSSY,
    AtcDecoder,
    compress_stream,
    compress_trace,
    decompress_stream,
)
from repro.core.lossy import LossyConfig
from repro.core.stream import chunk_array
from repro.errors import ConfigurationError
from repro.traces.filter import CacheFilter, StreamingCacheFilter, iter_filtered_spec_like_chunks
from repro.traces.spec_like import get_workload
from repro.traces.trace import iter_raw_chunks, read_raw_trace, write_raw_trace

CHUNK_SIZES = (1, 7, 4096)

WORKER_COUNTS = (1, 2, 4)


def concat_chunks(chunks) -> np.ndarray:
    """Materialise a chunk stream (no chunks give an empty trace)."""
    return np.concatenate([np.empty(0, dtype=np.uint64), *chunks])


def _container_files(directory) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def reference_stream():
    """A small mcf-like reference stream shared by the filter tests."""
    return get_workload("429.mcf").reference_stream(6_000, seed=3)


@pytest.fixture(scope="module")
def filtered_addresses(reference_stream):
    """The one-shot filtered trace of the shared reference stream."""
    return CacheFilter().filter(reference_stream).trace.addresses


class TestChunkPlumbing:
    def test_chunk_array_concat_roundtrip(self):
        array = np.arange(1000, dtype=np.uint64)
        for size in CHUNK_SIZES:
            assert np.array_equal(concat_chunks(chunk_array(array, size)), array)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            list(chunk_array(np.arange(4, dtype=np.uint64), 0))
        with pytest.raises(ConfigurationError):
            list(chunk_array(np.arange(4, dtype=np.uint64), -1))


class TestStreamingFilterEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_filter_chunks_match_one_shot(self, reference_stream, filtered_addresses, chunk_size):
        streaming = StreamingCacheFilter()
        chunks = streaming.filter_chunks(reference_stream.iter_chunks(chunk_size))
        assert np.array_equal(concat_chunks(chunks), filtered_addresses)

    def test_streaming_stats_match_one_shot(self, reference_stream):
        one_shot = CacheFilter().filter(reference_stream)
        streaming = StreamingCacheFilter()
        for _ in streaming.filter_chunks(reference_stream.iter_chunks(97)):
            pass
        assert streaming.instruction_stats == one_shot.instruction_stats
        assert streaming.data_stats == one_shot.data_stats

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_spec_like_chunk_stream_matches_filtered_trace(self, chunk_size):
        from repro.traces.filter import filtered_spec_like_trace

        expected = filtered_spec_like_trace("462.libquantum", 5_000, seed=1).addresses
        chunks = iter_filtered_spec_like_chunks("462.libquantum", 5_000, chunk_size, seed=1)
        assert np.array_equal(concat_chunks(chunks), expected)


class TestStreamingEncoderEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_lossless_container_byte_identical(
        self, tmp_path, filtered_addresses, chunk_size, workers
    ):
        config = LossyConfig(chunk_buffer_addresses=500, backend="zlib", workers=workers)
        reference = tmp_path / "in-memory"
        compress_trace(filtered_addresses, reference, mode=MODE_LOSSLESS, config=config)
        streamed = tmp_path / f"stream-{chunk_size}-{workers}"
        compress_stream(
            chunk_array(filtered_addresses, chunk_size), streamed, mode=MODE_LOSSLESS, config=config
        )
        assert _container_files(streamed) == _container_files(reference)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_lossy_container_byte_identical(self, tmp_path, filtered_addresses, chunk_size):
        config = LossyConfig(
            interval_length=700, chunk_buffer_addresses=700, backend="zlib", threshold=0.4
        )
        reference = tmp_path / "in-memory"
        compress_trace(filtered_addresses, reference, mode=MODE_LOSSY, config=config)
        streamed = tmp_path / f"stream-{chunk_size}"
        compress_stream(
            chunk_array(filtered_addresses, chunk_size), streamed, mode=MODE_LOSSY, config=config
        )
        assert _container_files(streamed) == _container_files(reference)


class TestStreamingDecoderEquivalence:
    @pytest.fixture(scope="class")
    def lossy_container(self, tmp_path_factory, filtered_addresses):
        directory = tmp_path_factory.mktemp("stream-decode") / "container"
        config = LossyConfig(
            interval_length=700, chunk_buffer_addresses=700, backend="zlib", threshold=0.4
        )
        compress_trace(filtered_addresses, directory, mode=MODE_LOSSY, config=config)
        return directory

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_iter_chunks_matches_read_all(self, lossy_container, chunk_size, workers):
        expected = AtcDecoder(lossy_container).read_all()
        decoder = AtcDecoder(lossy_container, workers=workers)
        chunks = list(decoder.iter_chunks(chunk_size))
        assert np.array_equal(concat_chunks(chunks), expected)
        assert all(int(chunk.size) == chunk_size for chunk in chunks[:-1])

    def test_decompress_stream_helper(self, lossy_container):
        expected = AtcDecoder(lossy_container).read_all()
        assert np.array_equal(concat_chunks(decompress_stream(lossy_container, 97)), expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_iter_chunks_are_exact_and_owned(self, lossy_container, workers):
        """Writing into yielded chunks must not reach the chunk cache or later chunks."""
        expected = AtcDecoder(lossy_container).read_all()
        total = int(expected.size)
        decoder = AtcDecoder(lossy_container, workers=workers)
        assert {record.kind for record in decoder.records} == {"chunk", "imitate"}
        for size in (1, 7, 699, 701, 65536, total + 5):
            chunks = list(decoder.iter_chunks(size))
            assert [int(chunk.size) for chunk in chunks] == [
                min(size, total - start) for start in range(0, total, size)
            ]
            assert np.array_equal(concat_chunks(chunks), expected)
            for chunk in chunks:
                chunk[:] = 0xDEADBEEF
            assert np.array_equal(concat_chunks(decoder.iter_chunks(size)), expected)
            fresh = AtcDecoder(lossy_container, workers=workers)
            assert np.array_equal(concat_chunks(fresh.iter_chunks(size)), expected)
        result = decoder.read_all()
        result[:] = 0
        assert np.array_equal(decoder.read_all(), expected)

    def test_cached_chunks_cannot_be_written_through_iter_intervals(self, lossy_container):
        expected = AtcDecoder(lossy_container).read_all()
        decoder = AtcDecoder(lossy_container)
        first = next(decoder.iter_intervals())
        assert decoder.records[0].is_chunk
        with pytest.raises(ValueError):
            first[:] = 0
        assert np.array_equal(concat_chunks(decoder.iter_chunks(97)), expected)

    @pytest.mark.parametrize(
        "path",
        ["read_all", "iter_chunks-1-97", "iter_chunks-2-97", "iter_chunks-1-1000", "iter_chunks-2-1000"],
    )
    def test_one_materialize_call_per_record(self, lossy_container, monkeypatch, path):
        """Per-layer tracing wraps ``repro.core.atc.materialize_interval``: one span per record."""
        from repro.core import atc

        expected = AtcDecoder(lossy_container).read_all()
        replayed = []
        original = atc.materialize_interval

        def counting(record, source, *args, **kwargs):
            replayed.append(record)
            return original(record, source, *args, **kwargs)

        monkeypatch.setattr(atc, "materialize_interval", counting)
        if path == "read_all":
            decoder = AtcDecoder(lossy_container)
            decoded = decoder.read_all()
        else:
            _, workers, size = path.split("-")
            decoder = AtcDecoder(lossy_container, workers=int(workers))
            decoded = concat_chunks(decoder.iter_chunks(int(size)))
        assert np.array_equal(decoded, expected)
        assert [id(record) for record in replayed] == [id(record) for record in decoder.records]

    def test_huge_chunk_size_allocates_only_the_trace(self, lossy_container):
        import tracemalloc

        expected = AtcDecoder(lossy_container).read_all()
        decoder = AtcDecoder(lossy_container)
        tracemalloc.start()
        try:
            chunks = list(decoder.iter_chunks(2**40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == 1 and np.array_equal(chunks[0], expected)
        assert peak < 8 * expected.nbytes + (1 << 20), f"peaked at {peak} bytes"

    def test_iter_chunks_detects_truncated_container(self, tmp_path, filtered_addresses):
        """Like read_all, the chunk stream must not end short silently."""
        from repro.errors import CodecError

        directory = tmp_path / "container"
        config = LossyConfig(chunk_buffer_addresses=500, backend="zlib")
        compress_trace(filtered_addresses, directory, mode=MODE_LOSSLESS, config=config)
        decoder = AtcDecoder(directory)
        # Corrupt the metadata so the records decode to fewer addresses
        # than INFO claims (a truncated-container stand-in).
        decoder.metadata = dict(decoder.metadata, original_length=len(filtered_addresses) + 1)
        with pytest.raises(CodecError):
            for _ in decoder.iter_chunks(97):
                pass


class TestStreamingMissStreamEquivalence:
    # a 1-way, a 2-way and a 4-way geometry: all three run the LRU kernel
    CONFIGS = [
        CacheConfig(num_sets=16, associativity=1),
        CacheConfig(num_sets=16, associativity=2),
        CacheConfig(num_sets=64, associativity=4),
    ]
    CONFIG_IDS = ["16x1", "16x2", "64x4"]

    @pytest.fixture(scope="class")
    def blocks(self):
        rng = np.random.default_rng(42)
        return rng.integers(0, 2_000, size=5_000, dtype=np.uint64)

    @staticmethod
    def _serial(config, blocks):
        """Reference behaviour: the per-access serial loop."""
        cache = SetAssociativeCache(config)
        misses = [int(b) for b in blocks.tolist() if not cache.access_block(int(b))]
        return np.array(misses, dtype=np.uint64), cache.stats

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_batch_miss_stream_matches_serial(self, blocks, config):
        expected, expected_stats = self._serial(config, blocks)
        cache = SetAssociativeCache(config)
        assert np.array_equal(cache.miss_stream(blocks), expected)
        assert cache.stats == expected_stats

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_miss_stream_chunks_match_serial(self, blocks, config, chunk_size):
        expected, expected_stats = self._serial(config, blocks)
        cache = SetAssociativeCache(config)
        chunks = (cache.miss_stream(chunk) for chunk in chunk_array(blocks, chunk_size))
        assert np.array_equal(concat_chunks(chunks), expected)
        assert cache.stats == expected_stats


class TestRawFileChunkStreaming:
    def test_iter_raw_chunks_matches_read_raw_trace(self, tmp_path):
        values = np.arange(10_000, dtype=np.uint64) * np.uint64(3)
        path = tmp_path / "trace.bin"
        write_raw_trace(values, path)
        for chunk_size in CHUNK_SIZES:
            chunks = list(iter_raw_chunks(path, chunk_size))
            assert np.array_equal(concat_chunks(chunks), read_raw_trace(path).addresses)
            assert all(int(chunk.size) == chunk_size for chunk in chunks[:-1])

    def test_partial_tail_raises_after_full_records(self, tmp_path):
        from repro.errors import TraceFormatError

        path = tmp_path / "trace.bin"
        path.write_bytes(np.arange(5, dtype=np.uint64).tobytes() + b"\x01\x02\x03")
        produced = []
        with pytest.raises(TraceFormatError):
            for chunk in iter_raw_chunks(path, 2):
                produced.append(chunk)
        assert np.array_equal(concat_chunks(produced), np.arange(5, dtype=np.uint64))

    def test_mid_stream_short_reads_are_reassembled(self):
        """A pipe-like source may split records across read() calls."""

        class DribbleReader:
            def __init__(self, payload):
                self.payload = payload
                self.offset = 0

            def read(self, size):
                # Return 3 bytes at a time, never a whole record.
                piece = self.payload[self.offset : self.offset + 3]
                self.offset += len(piece)
                return piece

        values = np.arange(100, dtype=np.uint64)
        chunks = list(iter_raw_chunks(DribbleReader(values.tobytes()), 8))
        assert np.array_equal(concat_chunks(chunks), values)


class TestHarnessStreamingEntryPoints:
    def test_stream_trace_matches_cached_trace(self):
        from repro.analysis.harness import EvaluationHarness, EvaluationScale

        harness = EvaluationHarness(EvaluationScale(references_per_workload=5_000))
        expected = harness.trace("429.mcf").addresses
        assert np.array_equal(concat_chunks(harness.stream_trace("429.mcf", 97)), expected)

    def test_compress_workload_matches_in_memory_pipeline(self, tmp_path):
        from repro.analysis.harness import EvaluationHarness, EvaluationScale

        harness = EvaluationHarness(EvaluationScale(references_per_workload=5_000))
        config = LossyConfig(chunk_buffer_addresses=500, backend="zlib")
        streamed = tmp_path / "streamed"
        decoder = harness.compress_workload("429.mcf", streamed, mode="c", config=config)
        assert np.array_equal(decoder.read_all(), harness.trace("429.mcf").addresses)
        reference = tmp_path / "reference"
        compress_trace(harness.trace("429.mcf").addresses, reference, mode="c", config=config)
        assert _container_files(streamed) == _container_files(reference)
