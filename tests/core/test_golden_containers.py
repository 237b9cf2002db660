"""Golden-file regression suite for the on-disk ATC container format.

Small reference containers — lossless and lossy, for each of the gz/bz2/xz
back-ends — are committed under ``tests/data/golden/``.  The tests assert
two directions:

* **encode**: today's encoder, fed the fixed golden input trace, must
  reproduce every committed container file byte for byte; and
* **decode**: today's decoder must read the committed containers and
  produce exactly the expected address sequences (the golden input for
  lossless containers, a pinned SHA-256 of the decoded trace for lossy
  ones).

Together they lock the container layout, the INFO stream, the bytesort
transform, the interval-record serialisation and the byte-translation
tables against silent drift: changing a single byte of the on-disk format
(or of a committed fixture) fails the suite.

The golden input is generated with pure integer arithmetic — no RNG — so
it is identical on every platform, Python and NumPy version.  To
regenerate the fixtures after an *intentional* format change::

    PYTHONPATH=src python tests/core/test_golden_containers.py --regen
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, AtcDecoder, AtcEncoder
from repro.core.fsck import scrub_container
from repro.core.lossy import LossyConfig

GOLDEN_ROOT = Path(__file__).resolve().parent.parent / "data" / "golden"

#: The back-ends covered by the fixtures (aliases exercise alias lookup too).
GOLDEN_BACKENDS = ("gz", "bz2", "xz")

#: One fixture per (mode, backend): 2 x 3 = 6 committed containers.
GOLDEN_VARIANTS = tuple(
    (mode_name, mode, backend)
    for mode_name, mode in (("lossless", MODE_LOSSLESS), ("lossy", MODE_LOSSY))
    for backend in GOLDEN_BACKENDS
)

_INTERVAL = 500

#: SHA-256 of the decoded golden lossy trace (``<u8`` bytes); the back-end
#: changes the chunk bytes on disk, never the decoded addresses.
GOLDEN_LOSSY_DECODE_SHA256 = "2411262e4c5aa22b4c17bb3dd06735fe2b052e4fd89b9d78504a0aedb1df5938"

#: Digest of each frozen format-v1 fixture (see :func:`_directory_digest`).
#: The encoder no longer writes v1, so these pins are what keeps the
#: legacy bytes the reader is tested against from drifting.
GOLDEN_V1_SHA256 = {
    ("lossless", "gz"): "01d517b86fec39404ffecaac3a124d50155ef1b5ecdbaa568c0df19e9d0334bd",
    ("lossless", "bz2"): "2e3daed2cfe7764529e8958ca0f7882faa14b7d2f0efac15dac34ea2d3eb023b",
    ("lossless", "xz"): "1a33bb9a888358e28bd8a2c57d537dc240b3a5252fceba64dbc6bd6a115ffc68",
    ("lossy", "gz"): "8329d9d8ab8641f08643d68ea6ab2204f2d93bbda000f7e4c5aa2fd3887cba38",
    ("lossy", "bz2"): "21d5144825cac43aff6576464327d1395be7dfe3d9f51d4308e1df7ca346d7c2",
    ("lossy", "xz"): "4403b6dc352335183a94d06b4d55ced2de0dcf5878d6ca9fc0c3e3398c7523fa",
}


def golden_addresses() -> np.ndarray:
    """The fixed golden input: 3000 block addresses, RNG-free.

    Six 500-address phases over a 4096-block working set, scrambled with a
    Knuth multiplicative hash so the distribution is stationary (phases
    resemble each other, which makes the lossy encoder emit *imitation*
    records with byte-translation tables — the format's trickiest part).
    Later phases shift the region base so translations are non-trivial.
    """
    pieces = []
    for phase in range(6):
        k = np.arange(_INTERVAL, dtype=np.uint64)
        scrambled = ((k + np.uint64(17 * phase + 1)) * np.uint64(2654435761)) % np.uint64(4096)
        base = np.uint64(0x40_0000 + (phase // 2) * 0x1_0000)
        pieces.append(base + scrambled)
    return np.concatenate(pieces)


def golden_config(backend: str) -> LossyConfig:
    """The fixed codec configuration every golden container was written with."""
    return LossyConfig(
        interval_length=_INTERVAL,
        threshold=0.5,
        chunk_buffer_addresses=_INTERVAL,
        backend=backend,
    )


def golden_directory(mode_name: str, backend: str) -> Path:
    return GOLDEN_ROOT / f"{mode_name}_{backend}"


def golden_v1_directory(mode_name: str, backend: str) -> Path:
    """The committed format-v1 twin of a golden container (legacy reader pin)."""
    return GOLDEN_ROOT / "v1" / f"{mode_name}_{backend}"


def write_golden_container(directory: Path, mode: str, backend: str) -> None:
    """Encode the golden input into ``directory`` (used by tests and --regen)."""
    with AtcEncoder(directory, mode=mode, config=golden_config(backend)) as encoder:
        encoder.code_many(golden_addresses())


def _read_files(directory: Path) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())}


def _directory_digest(directory: Path) -> str:
    """SHA-256 over every file's name and the SHA-256 of its bytes, in name order."""
    digest = hashlib.sha256()
    for name, data in _read_files(directory).items():
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


class TestGoldenContainers:
    def test_fixtures_are_committed(self):
        for mode_name, _, backend in GOLDEN_VARIANTS:
            directory = golden_directory(mode_name, backend)
            assert directory.is_dir(), (
                f"missing golden fixture {directory}; regenerate with "
                "PYTHONPATH=src python tests/core/test_golden_containers.py --regen"
            )

    def test_encoder_reproduces_golden_containers_byte_for_byte(self, tmp_path):
        for mode_name, mode, backend in GOLDEN_VARIANTS:
            fresh = tmp_path / f"{mode_name}_{backend}"
            write_golden_container(fresh, mode, backend)
            expected = _read_files(golden_directory(mode_name, backend))
            actual = _read_files(fresh)
            assert actual.keys() == expected.keys(), (mode_name, backend)
            for name in expected:
                assert actual[name] == expected[name], (
                    f"{mode_name}_{backend}/{name} drifted from the committed golden bytes"
                )

    def test_decoder_reads_golden_lossless_containers_exactly(self):
        for backend in GOLDEN_BACKENDS:
            decoder = AtcDecoder(golden_directory("lossless", backend))
            assert not decoder.is_lossy
            assert np.array_equal(decoder.read_all(), golden_addresses()), backend

    def test_decoder_reads_golden_lossy_containers_exactly(self):
        for backend in GOLDEN_BACKENDS:
            decoder = AtcDecoder(golden_directory("lossy", backend))
            assert decoder.is_lossy
            decoded = decoder.read_all().astype("<u8").tobytes()
            assert hashlib.sha256(decoded).hexdigest() == GOLDEN_LOSSY_DECODE_SHA256, backend

    def test_golden_lossy_containers_exercise_imitation_records(self):
        """The fixtures must cover the imitate-record layout, not just chunks."""
        for backend in GOLDEN_BACKENDS:
            decoder = AtcDecoder(golden_directory("lossy", backend))
            kinds = {record.kind for record in decoder.records}
            assert kinds == {"chunk", "imitate"}, backend

    def test_golden_lossy_back_ends_share_one_interval_plan(self):
        """The back-end changes chunk bytes only, never the planner's records."""
        plans = {}
        for backend in GOLDEN_BACKENDS:
            decoder = AtcDecoder(golden_directory("lossy", backend))
            plans[backend] = [
                (
                    record.kind,
                    record.chunk_id,
                    record.length,
                    None if record.translations is None else record.translations.tobytes(),
                )
                for record in decoder.records
            ]
        assert plans["gz"] == plans["bz2"] == plans["xz"]

    def test_golden_metadata_is_stable(self):
        for mode_name, _, backend in GOLDEN_VARIANTS:
            decoder = AtcDecoder(golden_directory(mode_name, backend))
            assert decoder.metadata["format"] == "atc"
            assert decoder.metadata["format_version"] == 2
            assert decoder.metadata["mode"] == mode_name
            assert decoder.metadata["original_length"] == golden_addresses().size
            digests = decoder.metadata["chunk_digests"]
            assert set(digests) == {str(i) for i in decoder.container.chunk_ids()}
            assert all(len(d) == 16 for d in digests.values())


class TestGoldenV1Containers:
    """The format-v1 twins: the legacy layout stays readable.

    The encoder writes only format v2, but v1 containers must still
    decode.  These frozen fixtures are the exact bytes the encoder
    produced before the integrity layer existed; ``--regen`` leaves them
    alone.
    """

    def test_v1_fixtures_are_committed(self):
        for mode_name, _, backend in GOLDEN_VARIANTS:
            assert golden_v1_directory(mode_name, backend).is_dir()

    @pytest.mark.parametrize("mode_name, backend", sorted(GOLDEN_V1_SHA256))
    def test_v1_fixture_bytes_are_frozen(self, mode_name, backend):
        directory = golden_v1_directory(mode_name, backend)
        assert _directory_digest(directory) == GOLDEN_V1_SHA256[(mode_name, backend)], (
            f"v1/{mode_name}_{backend} drifted from the committed bytes"
        )

    def test_v1_containers_decode_identically_to_v2(self):
        for mode_name, _, backend in GOLDEN_VARIANTS:
            v1 = AtcDecoder(golden_v1_directory(mode_name, backend))
            v2 = AtcDecoder(golden_directory(mode_name, backend))
            assert v1.metadata["format_version"] == 1
            assert "chunk_digests" not in v1.metadata
            assert np.array_equal(v1.read_all(), v2.read_all()), (mode_name, backend)

    def test_v1_and_v2_chunk_files_are_identical(self):
        """The integrity layer changes INFO only — chunk payloads are untouched."""
        for mode_name, _, backend in GOLDEN_VARIANTS:
            v1 = _read_files(golden_v1_directory(mode_name, backend))
            v2 = _read_files(golden_directory(mode_name, backend))
            assert v1.keys() == v2.keys()
            for name in v1:
                if not name.startswith("INFO."):
                    assert v1[name] == v2[name], (mode_name, backend, name)

    def test_every_v1_fixture_scrubs_clean(self):
        """fsck checks digestless v1 chunks by decompression; all must pass."""
        for mode_name, _, backend in GOLDEN_VARIANTS:
            directory = golden_v1_directory(mode_name, backend)
            scrub = scrub_container(directory)
            assert scrub.ok, (mode_name, backend, scrub.to_json())
            assert scrub.format_version == 1
            assert len(scrub.chunks) == len(AtcDecoder(directory).container.chunk_ids())


def _regenerate() -> None:
    """Rewrite the v2 fixtures; the v1 twins are frozen (v1 is read-only)."""
    for mode_name, mode, backend in GOLDEN_VARIANTS:
        directory = golden_directory(mode_name, backend)
        if directory.exists():
            shutil.rmtree(directory)
        write_golden_container(directory, mode, backend)
        print(f"wrote {directory}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
