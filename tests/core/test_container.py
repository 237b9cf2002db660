"""Tests of the on-disk container format and interval-trace serialisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.container import (
    AtcContainer,
    deserialize_interval_trace,
    serialize_interval_trace,
)
from repro.core.histograms import identity_translation
from repro.core.intervals import IntervalRecord
from repro.errors import ContainerError


def _chunk_record(chunk_id=0, length=100):
    return IntervalRecord(kind="chunk", chunk_id=chunk_id, length=length)


def _imitate_record(chunk_id=0, length=100, active=None):
    translations = identity_translation()
    translations[3] = np.roll(translations[3], 7)
    active_bytes = np.zeros(8, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    active_bytes = active_bytes.copy()
    active_bytes[3] = True
    return IntervalRecord(
        kind="imitate",
        chunk_id=chunk_id,
        length=length,
        active_bytes=active_bytes,
        translations=translations,
    )


class TestIntervalTraceSerialisation:
    def test_roundtrip_chunk_records(self):
        records = [_chunk_record(0, 50), _chunk_record(1, 60)]
        recovered = deserialize_interval_trace(serialize_interval_trace(records))
        assert [(r.kind, r.chunk_id, r.length) for r in recovered] == [
            ("chunk", 0, 50),
            ("chunk", 1, 60),
        ]

    def test_roundtrip_imitation_records(self):
        records = [_chunk_record(0, 100), _imitate_record(0, 100)]
        recovered = deserialize_interval_trace(serialize_interval_trace(records))
        assert recovered[1].kind == "imitate"
        assert recovered[1].chunk_id == 0
        assert np.array_equal(recovered[1].translations, records[1].translations)
        assert np.array_equal(recovered[1].active_bytes, records[1].active_bytes)

    def test_empty_interval_trace(self):
        assert deserialize_interval_trace(serialize_interval_trace([])) == []

    def test_truncated_payload_rejected(self):
        payload = serialize_interval_trace([_imitate_record()])
        with pytest.raises(ContainerError):
            deserialize_interval_trace(payload[:-100])

    def test_truncated_header_rejected(self):
        with pytest.raises(ContainerError):
            deserialize_interval_trace(b"\x00\x01")

    def test_invalid_kind_byte_rejected(self):
        payload = bytearray(serialize_interval_trace([_chunk_record()]))
        payload[0] = 9
        with pytest.raises(ContainerError):
            deserialize_interval_trace(bytes(payload))

    def test_imitation_record_size_matches_paper(self):
        """Translations are 'completely described with 8 x 256 bytes'."""
        payload = serialize_interval_trace([_imitate_record()])
        # kind + chunk_id + length + active byte + 2048 translation bytes
        assert len(payload) == 1 + 4 + 4 + 1 + 8 * 256


class TestAtcContainer:
    def test_create_write_read_chunks(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        container.write_chunk(0, b"first")
        container.write_chunk(1, b"second")
        assert container.read_chunk(0) == b"first"
        assert container.read_chunk(1) == b"second"
        assert container.chunk_ids() == [0, 1]

    def test_chunk_files_are_one_indexed_with_suffix(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", backend="bz2", create=True)
        container.write_chunk(0, b"payload")
        assert (tmp_path / "trace" / "1.bz2").exists()

    def test_info_roundtrip(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        metadata = {"mode": "lossy", "original_length": 123}
        records = [_chunk_record(0, 100), _imitate_record(0, 23)]
        container.write_info(metadata, records)
        read_metadata, read_records = container.read_info()
        assert read_metadata == metadata
        assert len(read_records) == 2
        assert read_records[1].kind == "imitate"

    def test_missing_chunk_raises(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        with pytest.raises(ContainerError):
            container.read_chunk(5)

    def test_missing_info_raises(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        with pytest.raises(ContainerError):
            container.read_info()

    def test_open_nonexistent_directory_raises(self, tmp_path):
        with pytest.raises(ContainerError):
            AtcContainer(tmp_path / "missing")

    def test_double_create_rejected(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        container.write_info({"mode": "lossless"}, [])
        with pytest.raises(ContainerError):
            AtcContainer(tmp_path / "trace", create=True)

    def test_negative_chunk_id_rejected(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        with pytest.raises(ContainerError):
            container.write_chunk(-1, b"")

    def test_total_bytes_counts_all_files(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", create=True)
        container.write_chunk(0, b"x" * 100)
        container.write_info({"mode": "lossless"}, [])
        assert container.total_bytes() >= 100

    def test_corrupt_info_detected(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", backend="store", create=True)
        (tmp_path / "trace" / "INFO.store").write_bytes(b"garbage")
        with pytest.raises(ContainerError):
            container.read_info()

    def test_alternate_backend_suffix(self, tmp_path):
        container = AtcContainer(tmp_path / "trace", backend="zlib", create=True)
        container.write_chunk(0, b"payload")
        container.write_info({"mode": "lossless"}, [])
        assert (tmp_path / "trace" / "1.zlib").exists()
        assert (tmp_path / "trace" / "INFO.zlib").exists()
        reopened = AtcContainer(tmp_path / "trace", backend="zlib")
        metadata, _ = reopened.read_info()
        assert metadata["mode"] == "lossless"

    @pytest.mark.parametrize("backend", ["gz", "xz", "bz2", "store"])
    def test_open_resolves_the_backend_from_the_info_suffix(self, tmp_path, backend):
        from repro.traces.formats import is_atc_container

        written = AtcContainer(tmp_path / "trace", backend=backend, create=True)
        written.write_chunk(0, b"payload")
        written.write_info({"mode": "lossless"}, [])
        opened = AtcContainer.open(tmp_path / "trace")
        assert opened.backend is written.backend
        assert opened.chunk_path(0).name == f"1.{written.backend.name}"
        assert opened.read_info()[0]["mode"] == "lossless"
        assert is_atc_container(tmp_path / "trace")

    @pytest.mark.parametrize("suffix", ["gz", "xz", "foo", "bz2.bak"])
    def test_open_refuses_a_suffix_that_is_no_canonical_backend(self, tmp_path, suffix):
        from repro.traces.formats import is_atc_container

        container = AtcContainer(tmp_path / "trace", backend="bz2", create=True)
        container.write_info({"mode": "lossless"}, [])
        (tmp_path / "trace" / "INFO.bz2").rename(tmp_path / "trace" / f"INFO.{suffix}")
        with pytest.raises(ContainerError, match=rf"not an ATC container \(INFO\.{suffix}"):
            AtcContainer.open(tmp_path / "trace")
        assert not is_atc_container(tmp_path / "trace")

    def test_open_refuses_a_directory_without_info(self, tmp_path):
        with pytest.raises(ContainerError, match="no INFO"):
            AtcContainer.open(tmp_path)
        with pytest.raises(ContainerError, match="no INFO"):
            AtcContainer.open(tmp_path / "missing")
