"""Tests of the streaming ATC encoder/decoder and the atc_open facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.atc import (
    MODE_DECODE,
    MODE_LOSSLESS,
    MODE_LOSSY,
    AtcDecoder,
    AtcEncoder,
    _container_round_trip,
    atc_open,
    compress_trace,
    decompress_trace,
)
from repro.core.lossy import LossyConfig
from repro.errors import CodecError, ConfigurationError


@pytest.fixture
def small_config() -> LossyConfig:
    return LossyConfig(interval_length=5_000, chunk_buffer_addresses=5_000)


class TestAtcEncoderLossless:
    def test_roundtrip_streaming_one_by_one(self, tmp_path, sequential_addresses, small_config):
        directory = tmp_path / "trace"
        with AtcEncoder(directory, mode=MODE_LOSSLESS, config=small_config) as encoder:
            for value in sequential_addresses[:2_000].tolist():
                encoder.code(value)
        recovered = decompress_trace(directory)
        assert np.array_equal(recovered, sequential_addresses[:2_000])

    def test_roundtrip_bulk(self, tmp_path, random_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(random_addresses, directory, mode=MODE_LOSSLESS, config=small_config)
        assert np.array_equal(decoder.read_all(), random_addresses)

    def test_lossless_mode_is_exact_even_on_random_data(self, tmp_path, random_addresses, small_config):
        directory = tmp_path / "trace"
        compress_trace(random_addresses, directory, mode=MODE_LOSSLESS, config=small_config)
        assert np.array_equal(decompress_trace(directory), random_addresses)

    def test_each_buffer_becomes_a_chunk(self, tmp_path, sequential_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(
            sequential_addresses, directory, mode=MODE_LOSSLESS, config=small_config
        )
        expected_chunks = -(-sequential_addresses.size // small_config.chunk_buffer_addresses)
        assert len(decoder.container.chunk_ids()) == expected_chunks
        assert all(record.kind == "chunk" for record in decoder.records)


class TestAtcEncoderLossy:
    def test_roundtrip_length_preserved(self, tmp_path, working_set_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=small_config)
        approx = decoder.read_all()
        assert approx.size == working_set_addresses.size

    def test_stationary_trace_stores_one_chunk(self, tmp_path, working_set_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=small_config)
        assert len(decoder.container.chunk_ids()) == 1
        assert decoder.is_lossy

    def test_metadata_recorded(self, tmp_path, working_set_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=small_config)
        metadata = decoder.metadata
        assert metadata["mode"] == "lossy"
        assert metadata["original_length"] == working_set_addresses.size
        assert metadata["interval_length"] == small_config.interval_length
        assert metadata["threshold"] == pytest.approx(small_config.threshold)

    def test_bits_per_address_positive(self, tmp_path, working_set_addresses, small_config):
        directory = tmp_path / "trace"
        decoder = compress_trace(working_set_addresses, directory, mode=MODE_LOSSY, config=small_config)
        assert 0.0 < decoder.bits_per_address() < 64.0

    def test_code_after_close_rejected(self, tmp_path, small_config):
        encoder = AtcEncoder(tmp_path / "trace", mode=MODE_LOSSY, config=small_config)
        encoder.code(1)
        encoder.close()
        with pytest.raises(CodecError):
            encoder.code(2)

    def test_close_is_idempotent(self, tmp_path, small_config):
        encoder = AtcEncoder(tmp_path / "trace", mode=MODE_LOSSY, config=small_config)
        encoder.code_many(np.arange(100, dtype=np.uint64))
        encoder.close()
        encoder.close()
        assert decompress_trace(tmp_path / "trace").size == 100

    def test_empty_container(self, tmp_path, small_config):
        with AtcEncoder(tmp_path / "trace", mode=MODE_LOSSY, config=small_config):
            pass
        assert decompress_trace(tmp_path / "trace").size == 0


class TestAtcOpenFacade:
    def test_atc_open_modes(self, tmp_path, small_config):
        encoder = atc_open(tmp_path / "trace", MODE_LOSSY, config=small_config)
        assert isinstance(encoder, AtcEncoder)
        encoder.code_many(np.arange(1_000, dtype=np.uint64))
        encoder.close()
        decoder = atc_open(tmp_path / "trace", MODE_DECODE)
        assert isinstance(decoder, AtcDecoder)
        assert decoder.read_all().size == 1_000

    def test_atc_open_invalid_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            atc_open(tmp_path / "trace", "x")

    def test_iteration_protocol(self, tmp_path, small_config):
        encoder = atc_open(tmp_path / "trace", MODE_LOSSLESS, config=small_config)
        values = np.arange(500, dtype=np.uint64)
        encoder.code_many(values)
        encoder.close()
        decoder = atc_open(tmp_path / "trace", MODE_DECODE)
        assert list(decoder) == values.tolist()

    def test_figure8_random_values_single_chunk(self, tmp_path, rng):
        """Figure 8: i.i.d. random values -> one chunk, ratio = #intervals."""
        values = rng.integers(0, 1 << 63, size=50_000, dtype=np.uint64)
        config = LossyConfig(interval_length=5_000, chunk_buffer_addresses=5_000)
        decoder = compress_trace(values, tmp_path / "foobar", mode=MODE_LOSSY, config=config)
        assert len(decoder.container.chunk_ids()) == 1
        approx = decoder.read_all()
        assert approx.size == values.size
        # Compression ratio approaches the number of intervals (10 here).
        ratio = (values.size * 8) / decoder.compressed_bytes()
        assert ratio > 5.0


class TestContainerRoundTrip:
    """The scratch-container helper behind every measured size."""

    @pytest.mark.parametrize("mode", [MODE_LOSSLESS, MODE_LOSSY])
    def test_yields_the_decoder_of_the_written_container(
        self, tmp_path, working_set_addresses, small_config, mode
    ):
        written = compress_trace(working_set_addresses, tmp_path / "kept", mode, small_config)
        with _container_round_trip(working_set_addresses, mode, small_config) as decoder:
            assert decoder.compressed_bytes() == written.compressed_bytes()
            assert [(r.kind, r.chunk_id, r.length) for r in decoder.records] == [
                (r.kind, r.chunk_id, r.length) for r in written.records
            ]
            assert np.array_equal(decoder.read_all(), written.read_all())

    def test_scratch_container_is_deleted_on_exit(self, sequential_addresses, small_config):
        with _container_round_trip(sequential_addresses, MODE_LOSSLESS, small_config) as decoder:
            scratch = decoder.container.path
            assert scratch.is_dir()
        assert not scratch.exists()
        assert not scratch.parent.exists()

    def test_scratch_container_is_deleted_when_the_block_raises(self, sequential_addresses, small_config):
        with pytest.raises(RuntimeError, match="measurement failed"):
            with _container_round_trip(sequential_addresses, MODE_LOSSY, small_config) as decoder:
                scratch = decoder.container.path
                raise RuntimeError("measurement failed")
        assert not scratch.parent.exists()
