"""Tests of the parallel chunk pipeline and its byte-identity invariant."""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atc import (
    MODE_LOSSLESS,
    MODE_LOSSY,
    AtcDecoder,
    compress_trace,
    decompress_trace,
)
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig
from repro.core import parallel
from repro.core.parallel import OrderedChunkWriter, map_ordered, resolve_workers
from repro.errors import CodecError, ConfigurationError


def _container_digest(directory) -> str:
    digest = hashlib.sha256()
    for entry in sorted(Path(directory).iterdir()):
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def phased_trace() -> np.ndarray:
    """A multi-phase trace that produces several chunks in both modes."""
    rng = np.random.default_rng(11)
    pieces = []
    for phase in range(6):
        base = (phase % 3) * 0x1000_0000
        pieces.append(rng.integers(base, base + 50_000, size=30_000, dtype=np.uint64))
    return np.concatenate(pieces)


def _config(workers: int) -> LossyConfig:
    return LossyConfig(interval_length=20_000, chunk_buffer_addresses=20_000, workers=workers)


class TestResolveWorkers:
    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_zero_and_none_mean_cpu_count(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) == resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_preserves_order(self, workers):
        items = list(range(50))
        assert map_ordered(lambda value: value * 2, items, workers=workers) == [
            value * 2 for value in items
        ]

    def test_propagates_errors(self):
        def boom(value):
            raise ValueError(value)

        with pytest.raises(ValueError):
            map_ordered(boom, [1, 2, 3], workers=4)


class TestOrderedChunkWriter:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_writes_in_submission_order(self, workers):
        written = []
        with OrderedChunkWriter(lambda cid, payload: written.append((cid, payload)), workers) as writer:
            for chunk_id in range(20):
                writer.submit(chunk_id, lambda chunk_id=chunk_id: bytes([chunk_id]))
        assert written == [(chunk_id, bytes([chunk_id])) for chunk_id in range(20)]

    def test_bounded_pending(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)  # a pool on any host
        written = []
        writer = OrderedChunkWriter(lambda cid, payload: written.append(cid), workers=2)
        assert writer.pool is not None
        for chunk_id in range(10):
            writer.submit(chunk_id, lambda chunk_id=chunk_id: bytes([chunk_id]))
            assert len(writer._pending) <= 4  # 2 * workers
        writer.close()
        assert written == list(range(10))

    def test_submit_after_close_rejected(self):
        writer = OrderedChunkWriter(lambda cid, payload: None, workers=1)
        writer.close()
        with pytest.raises(ConfigurationError):
            writer.submit(0, lambda: b"")

    def test_task_error_surfaces_on_close(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)  # a pool on any host

        def boom():
            raise RuntimeError("compression failed")

        writer = OrderedChunkWriter(lambda cid, payload: None, workers=2)
        writer.submit(0, boom)
        with pytest.raises(RuntimeError):
            writer.close()


class TestEncoderErrorPath:
    def test_close_after_aborted_context_writes_no_info(self, tmp_path, phased_trace):
        """An exception inside the context must not let a later close()
        publish an INFO stream referencing cancelled (unwritten) chunks."""
        from repro.core.atc import AtcEncoder
        from repro.core.container import AtcContainer

        directory = tmp_path / "container"
        encoder = AtcEncoder(directory, mode=MODE_LOSSLESS, config=_config(4))
        with pytest.raises(RuntimeError):
            with encoder:
                encoder.code_many(phased_trace[:40_000])
                raise RuntimeError("boom")
        encoder.close()  # must be a no-op, not a corrupt-container write
        assert not AtcContainer(directory).exists()
        with pytest.raises(CodecError):
            encoder.code(1)


class TestContainerDeterminism:
    @pytest.mark.parametrize("mode", [MODE_LOSSY, MODE_LOSSLESS])
    def test_parallel_container_is_byte_identical(self, tmp_path, phased_trace, mode):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        compress_trace(phased_trace, serial, mode=mode, config=_config(1))
        compress_trace(phased_trace, parallel, mode=mode, config=_config(4))
        serial_files = sorted(entry.name for entry in serial.iterdir())
        parallel_files = sorted(entry.name for entry in parallel.iterdir())
        assert serial_files == parallel_files
        assert len(serial_files) > 2  # several chunks, or there was nothing to parallelise
        assert _container_digest(serial) == _container_digest(parallel)

    @pytest.mark.parametrize("mode", [MODE_LOSSY, MODE_LOSSLESS])
    def test_parallel_decode_matches_serial(self, tmp_path, phased_trace, mode):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=mode, config=_config(2))
        serial = decompress_trace(directory, workers=1)
        parallel = decompress_trace(directory, workers=4)
        assert np.array_equal(serial, parallel)
        if mode == MODE_LOSSLESS:
            assert np.array_equal(serial, phased_trace)


    @pytest.mark.parametrize("mode", [MODE_LOSSY, MODE_LOSSLESS])
    def test_buffered_intervals_reach_the_pool_as_owned_copies(self, tmp_path, phased_trace, mode):
        """Pieces shorter than an interval go through the encoder's reusable
        buffer, which the next piece overwrites while the pool may still be
        compressing the previous interval: the thread path must copy it."""
        from repro.core.atc import AtcEncoder

        digests = []
        for workers in (1, 2):
            directory = tmp_path / f"pieces-{mode}-{workers}"
            config = LossyConfig(
                interval_length=20_000, chunk_buffer_addresses=20_000, backend="zlib", workers=workers
            )
            with AtcEncoder(directory, mode=mode, config=config) as encoder:
                encoder.encode_stream(np.array_split(phased_trace, 360))
            digests.append(_container_digest(directory))
        assert digests[0] == digests[1]


class TestDecoderChunkCache:
    def test_parallel_read_all_with_tiny_cache_matches_serial(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        serial = AtcDecoder(directory, workers=1).read_all()
        parallel = AtcDecoder(directory, workers=4, cache_chunks=1).read_all()
        assert np.array_equal(serial, parallel)

    def test_read_all_loads_each_chunk_once_even_serially(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        decoder = AtcDecoder(directory, workers=1, cache_chunks=1)
        loads = []
        original = decoder._load_chunk

        def counting_load(chunk_id):
            loads.append(chunk_id)
            return original(chunk_id)

        decoder._load_chunk = counting_load
        assert np.array_equal(decoder.read_all(), phased_trace)
        assert len(loads) == len(set(loads))  # no chunk decoded twice

    def test_cache_is_bounded(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace, directory, mode=MODE_LOSSLESS, config=_config(1))
        decoder = AtcDecoder(directory, cache_chunks=2)
        decoder.read_all()
        assert len(decoder._chunk_cache) <= decoder._cache_capacity

    def test_cache_capacity_validated(self, tmp_path, phased_trace):
        directory = tmp_path / "container"
        compress_trace(phased_trace[:30_000], directory, mode=MODE_LOSSLESS, config=_config(1))
        with pytest.raises(ConfigurationError):
            AtcDecoder(directory, cache_chunks=0)

    def test_lossy_imitations_reuse_cached_chunk(self, tmp_path, working_set_addresses):
        directory = tmp_path / "container"
        config = LossyConfig(interval_length=5_000, chunk_buffer_addresses=5_000)
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=config)
        # Streaming decode goes through the LRU cache: a stationary trace
        # stores one chunk and every interval reuses it.
        total = sum(int(piece.size) for piece in decoder.iter_intervals())
        assert total == working_set_addresses.size
        assert len(decoder._chunk_cache) == 1


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=400),
    interval_length=st.integers(min_value=1, max_value=97),
    workers=st.sampled_from([2, 3]),
)
def test_parallel_roundtrip_property(addresses, interval_length, workers):
    """Lossless parallel encode/decode is exact for arbitrary traces."""
    config = LossyConfig(
        interval_length=interval_length,
        chunk_buffer_addresses=interval_length,
        backend="zlib",
        workers=workers,
    )
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "container"
        compress_trace(addresses, directory, mode=MODE_LOSSLESS, config=config)
        recovered = decompress_trace(directory, workers=workers)
    assert recovered.tolist() == addresses


class TestBulkCodecWindow:
    @staticmethod
    def _feed(writer, items):
        for chunk_id, value in enumerate(items):
            writer.submit(chunk_id, lambda value=value: value + 100)
        writer.close()

    def test_inline_writer_pulls_one_at_a_time(self):
        state = {"pulled": 0, "written": 0}

        def items():
            for value in range(32):
                state["pulled"] += 1
                assert state["pulled"] <= state["written"] + 1
                yield value

        results = []

        def write(chunk_id, payload):
            state["written"] += 1
            results.append(payload)

        self._feed(OrderedChunkWriter(write, workers=1), items())
        assert results == [v + 100 for v in range(32)]

    def test_thread_writer_keeps_a_bounded_window(self):
        workers = 2
        state = {"pulled": 0, "written": 0}
        # The writer holds at most 2 * workers chunks in flight, so the
        # producer can never run further ahead than that plus the one chunk
        # being submitted.
        window_slack = 2 * workers + 1

        def items():
            for value in range(64):
                state["pulled"] += 1
                assert state["pulled"] <= state["written"] + window_slack
                yield value

        results = []

        def write(chunk_id, payload):
            state["written"] += 1
            results.append(payload)

        self._feed(OrderedChunkWriter(write, workers=workers), items())
        assert results == [v + 100 for v in range(64)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_codec_over_a_generator_is_byte_identical(self, phased_trace, workers):
        """The encoder's chunk fan-out: lazy windows, serial payload bytes."""
        codec = LosslessCodec(buffer_addresses=7_000, backend="zlib")
        windows = [phased_trace[start : start + 25_000] for start in range(0, 100_000, 25_000)]
        serial = [codec.compress(window) for window in windows]
        fanned = {}
        with OrderedChunkWriter(fanned.__setitem__, workers=workers) as writer:
            for chunk_id, window in enumerate(iter(windows)):
                writer.submit(chunk_id, codec.compress, window)
        assert list(fanned) == list(range(len(windows)))
        assert list(fanned.values()) == serial
        assert all(
            np.array_equal(codec.decompress(payload), window)
            for payload, window in zip(serial, windows)
        )
