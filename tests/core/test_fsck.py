"""Deterministic suite for ``repro fsck``: localisation, salvage, dispatch.

The hypothesis suite (``test_integrity.py``) proves damage is *detected*;
this file pins down what the scrubber *says* about it — that damage is
localised to the right chunk with the right status word — and that repair
produces a valid partial container with an honest damage report.
"""

from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core.atc import AtcDecoder
from repro.core.container import AtcContainer
from repro.core.fsck import (
    repair_container,
    scrub_cache_root,
    scrub_container,
    scrub_path,
    scrub_store,
)
from repro.core.integrity import chunk_digest
from repro.errors import ContainerError, IntegrityError
from repro.experiments.store import ResultStore
from repro.testing.faults import flip_bit, torn_write, truncate_file

from test_golden_containers import golden_addresses, golden_directory, golden_v1_directory


@pytest.fixture()
def container(tmp_path) -> Path:
    """A scratch copy of the lossless/bz2 golden container (6 chunks)."""
    work = tmp_path / "lossless_bz2"
    shutil.copytree(golden_directory("lossless", "bz2"), work)
    return work


def _chunk_file(container: Path, chunk_id: int) -> Path:
    return container / f"{chunk_id + 1}.bz2"


class TestScrubContainer:
    def test_clean_container_scrubs_clean(self, container):
        scrub = scrub_container(container)
        assert scrub.ok
        assert scrub.format_version == 2
        assert scrub.info_status == "ok"
        assert [c.status for c in scrub.chunks] == ["ok"] * 6

    def test_damage_is_localised_to_the_flipped_chunk(self, container):
        flip_bit(_chunk_file(container, 2), 13)
        scrub = scrub_container(container)
        assert not scrub.ok
        damaged = scrub.damaged_chunks
        assert [c.chunk_id for c in damaged] == [2]
        assert damaged[0].status == "digest-mismatch"
        assert "recorded" in damaged[0].detail and "found" in damaged[0].detail
        # every other chunk is individually vouched for
        assert sum(1 for c in scrub.chunks if c.ok) == 5

    def test_missing_chunk_is_reported_missing(self, container):
        _chunk_file(container, 4).unlink()
        scrub = scrub_container(container)
        assert [c.chunk_id for c in scrub.damaged_chunks] == [4]
        assert scrub.damaged_chunks[0].status == "missing"

    def test_torn_written_chunk_fails_its_digest(self, container):
        torn_write(_chunk_file(container, 1), 4)
        scrub = scrub_container(container)
        assert [c.status for c in scrub.damaged_chunks] == ["digest-mismatch"]

    def test_damaged_info_is_reported_as_corrupt(self, container):
        info = container / "INFO.bz2"
        flip_bit(info, 8 * (info.stat().st_size // 2))
        scrub = scrub_container(container)
        assert not scrub.ok
        assert scrub.info_status == "corrupt"
        assert scrub.info_detail

    def test_v1_container_scrubs_via_decompression(self, tmp_path):
        work = tmp_path / "v1"
        shutil.copytree(golden_v1_directory("lossless", "bz2"), work)
        assert scrub_container(work).ok
        # v1 has no digests: only gross damage (decompress failure) is caught
        target = _chunk_file(work, 0)
        truncate_file(target, target.stat().st_size // 2)
        scrub = scrub_container(work)
        assert [c.status for c in scrub.damaged_chunks] == ["corrupt"]
        assert scrub.format_version == 1

    def test_v1_chunk_header_must_match_its_interval_record(self, tmp_path):
        work = tmp_path / "v1"
        shutil.copytree(golden_v1_directory("lossless", "bz2"), work)
        target = _chunk_file(work, 0)
        payload = bytearray(target.read_bytes())
        (count,) = struct.unpack_from("<Q", payload, 5)
        struct.pack_into("<Q", payload, 5, count + 1)
        target.write_bytes(bytes(payload))
        scrub = scrub_container(work)
        assert [c.status for c in scrub.damaged_chunks] == ["corrupt"]
        assert "interval record" in scrub.damaged_chunks[0].detail
        with pytest.raises(IntegrityError, match=r"1\.bz2: chunk 1 is corrupt: .*interval record"):
            AtcDecoder(work).read_all()

    def test_v2_chunk_header_is_checked_under_a_recomputed_digest(self, container):
        target = _chunk_file(container, 2)
        payload = bytearray(target.read_bytes())
        (count,) = struct.unpack_from("<Q", payload, 5)
        struct.pack_into("<Q", payload, 5, count - 1)
        target.write_bytes(bytes(payload))
        info = AtcContainer(container)
        metadata, records = info.read_info()
        metadata["chunk_digests"]["2"] = chunk_digest(bytes(payload))
        info.write_info(metadata, records)
        scrub = scrub_container(container)
        assert [(c.chunk_id, c.status) for c in scrub.damaged_chunks] == [(2, "corrupt")]
        with pytest.raises(IntegrityError, match=r"3\.bz2: chunk 3 is corrupt: .*interval record"):
            AtcDecoder(container).read_all()

    def test_non_container_raises_container_error(self, tmp_path):
        (tmp_path / "stray.txt").write_text("hi")
        with pytest.raises(ContainerError, match="not an ATC container"):
            scrub_container(tmp_path)

    def test_scrub_is_read_only(self, container):
        flip_bit(_chunk_file(container, 3), 7)
        before = {p.name: p.read_bytes() for p in sorted(container.iterdir())}
        scrub_container(container)
        after = {p.name: p.read_bytes() for p in sorted(container.iterdir())}
        assert before == after


class TestRepairContainer:
    def test_repair_salvages_the_intact_prefix(self, container, tmp_path):
        flip_bit(_chunk_file(container, 3), 99)
        report = repair_container(container, tmp_path / "salvaged")
        assert report.dropped_chunks == [3]
        assert report.salvaged_chunks == [0, 1, 2, 4, 5]
        assert report.records_dropped > 0
        assert 0 < report.salvaged_addresses < report.original_addresses

        salvaged = AtcDecoder(tmp_path / "salvaged")
        recovered = salvaged.read_all()
        assert recovered.size == report.salvaged_addresses
        assert np.array_equal(recovered, golden_addresses()[: recovered.size])
        # the salvage report is carried in the metadata for post-mortem
        salvage = salvaged.metadata["salvage"]
        assert salvage["damaged_chunks"] == [3]
        assert salvage["original_length"] == golden_addresses().size
        # and the result is a *clean* v2 container
        assert scrub_container(tmp_path / "salvaged").ok

    def test_repair_refuses_a_damaged_info_stream(self, container, tmp_path):
        truncate_file(container / "INFO.bz2", 3)
        with pytest.raises(IntegrityError, match="nothing can be salvaged"):
            repair_container(container, tmp_path / "out")

    def test_repairing_a_clean_container_keeps_everything(self, container, tmp_path):
        report = repair_container(container, tmp_path / "copy")
        assert report.dropped_chunks == []
        assert report.records_dropped == 0
        assert report.salvaged_addresses == report.original_addresses
        assert np.array_equal(AtcDecoder(tmp_path / "copy").read_all(), golden_addresses())

    def test_repair_upgrades_a_v1_container_to_v2(self, tmp_path):
        """v1 is read-only: repair is the path from a v1 container to a
        checksummed v2 one, with the chunk payloads carried over as is."""
        source = golden_v1_directory("lossy", "bz2")
        report = repair_container(source, tmp_path / "upgraded")
        assert report.dropped_chunks == []
        upgraded = AtcDecoder(tmp_path / "upgraded")
        assert upgraded.format_version == 2
        assert set(upgraded.metadata["chunk_digests"]) == {str(i) for i in report.salvaged_chunks}
        assert np.array_equal(upgraded.read_all(), AtcDecoder(source).read_all())
        assert scrub_container(tmp_path / "upgraded").ok
        for chunk_id in report.salvaged_chunks:
            name = f"{chunk_id + 1}.bz2"
            assert (tmp_path / "upgraded" / name).read_bytes() == (source / name).read_bytes()


class TestScrubStoreAndCache:
    def test_store_entries_get_individual_verdicts(self, tmp_path):
        store = ResultStore(tmp_path)
        good, bad = "aa" * 32, "bb" * 32
        store.put(good, {"metric": 1})
        store.put(bad, {"metric": 2})
        bad_path = tmp_path / f"{bad}.json"
        bad_path.write_text(bad_path.read_text().replace("2", "3"))
        (tmp_path / ("cc" * 32 + ".json")).write_text("{broken")
        (tmp_path / ("dd" * 32 + ".json")).write_text(json.dumps({"legacy": True}))

        scrub = scrub_store(tmp_path)
        statuses = {entry.file.split(".")[0][:2]: entry.status for entry in scrub.entries}
        assert statuses == {
            "aa": "ok",
            "bb": "digest-mismatch",
            "cc": "corrupt",
            "dd": "legacy",
        }
        assert not scrub.ok
        assert [e.status for e in scrub.damaged_entries] == ["digest-mismatch", "corrupt"]

    def test_cache_root_scrubs_index_and_containers(self, tmp_path, container):
        root = tmp_path / "cache"
        (root / "index").mkdir(parents=True)
        ResultStore(root / "index").put("ee" * 32, {"addresses": 9})
        shutil.copytree(container, root / "containers" / "deadbeef")
        report = scrub_cache_root(root)
        assert report.kind == "cache"
        assert report.ok
        flip_bit(root / "containers" / "deadbeef" / "2.bz2", 5)
        assert not scrub_cache_root(root).ok


class TestScrubPathDispatch:
    def test_container_path_dispatches_to_container(self, container):
        report = scrub_path(container)
        assert report.kind == "container" and len(report.containers) == 1

    def test_store_path_dispatches_to_store(self, tmp_path):
        ResultStore(tmp_path).put("ab" * 32, {"x": 1})
        report = scrub_path(tmp_path)
        assert report.kind == "store" and len(report.stores) == 1 and report.ok

    def test_sweep_cache_with_sub_containers_is_a_store(self, tmp_path, container):
        sweep_cache = tmp_path / "sweep-cache"
        ResultStore(sweep_cache).put("ab" * 32, {"x": 1})
        shutil.copytree(container, sweep_cache / "unit_container")
        report = scrub_path(sweep_cache)
        assert report.kind == "store"
        assert len(report.stores) == 1 and len(report.containers) == 1

    @pytest.mark.parametrize("layout", ["store", "cache"])
    def test_a_member_naming_no_backend_is_damaged_not_fatal(self, tmp_path, container, layout):
        # One good container and one whose files were renamed to ``.foo``:
        # the scrub reports both, and only the renamed one as damaged.
        root = tmp_path / layout
        members = root / "containers" if layout == "cache" else root
        if layout == "cache":
            (root / "index").mkdir(parents=True)
        shutil.copytree(container, members / "good")
        (members / "renamed").mkdir()
        for path in container.iterdir():
            shutil.copyfile(path, members / "renamed" / f"{path.stem}.foo")
        report = scrub_path(root)
        assert report.kind == layout
        verdicts = {Path(scrub.path).name: scrub for scrub in report.containers}
        assert verdicts["good"].ok
        assert verdicts["renamed"].info_status == "malformed"
        assert "INFO.foo" in verdicts["renamed"].info_detail
        assert not report.ok

    def test_cache_root_dispatches_to_cache(self, tmp_path):
        (tmp_path / "index").mkdir()
        (tmp_path / "containers").mkdir()
        assert scrub_path(tmp_path).kind == "cache"

    def test_unrecognised_paths_raise(self, tmp_path):
        with pytest.raises(ContainerError):
            scrub_path(tmp_path / "absent")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ContainerError):
            scrub_path(tmp_path / "empty")
