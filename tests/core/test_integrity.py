"""Property-based proof of the integrity layer's headline guarantee.

The acceptance bar for the format-v2 digests is absolute: damage anywhere
in *any* golden container must never decode to a wrong answer.  A
truncation or chunk splice always surfaces as
:class:`~repro.errors.IntegrityError` on decode; a single-bit flip either
does, or decodes to exactly the pristine container's addresses.  (The INFO
footer hashes the *decompressed* INFO body, and some bits of a compressed
INFO stream carry no meaning: flipping bit 5924 of
``golden/lossy_gz/INFO.zlib`` inflates to the identical body.)  Hypothesis
draws the damage (which container, which file, which bit/length/chunk); the
properties assert detection.  A deterministic sibling suite
(``test_fsck.py``) covers localisation and repair; this file is only about
*detection*.

The fault primitives come from :mod:`repro.testing.faults` — the same ones
the CI chaos lane drives out-of-process — so the property suite and the
chaos lane exercise one implementation of "corruption".
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.atc import AtcDecoder
from repro.core.fsck import repair_container, scrub_container
from repro.errors import IntegrityError, ReproError
from repro.testing.faults import TransientEIO, flip_bit, torn_write, truncate_file

from test_golden_containers import (
    GOLDEN_VARIANTS,
    golden_addresses,
    golden_directory,
)

#: Every committed v2 golden container (the v1 twins record no digests, so
#: the absolute-detection guarantee is a v2 property).
_CONTAINERS = tuple(
    golden_directory(mode_name, backend) for mode_name, _, backend in GOLDEN_VARIANTS
)


def _copy_container(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    return destination


def _decode_all(directory: Path) -> np.ndarray:
    """Open and fully decode a container (every chunk passes verification)."""
    return AtcDecoder(directory).read_all()


def _container_files(directory: Path):
    return sorted(path for path in directory.iterdir() if path.is_file())


@st.composite
def _single_bit_flips(draw):
    """``(container, file name, bit offset)`` of one flip in a golden file."""
    source = draw(st.sampled_from(_CONTAINERS))
    target = draw(st.sampled_from(_container_files(source)))
    bit = draw(st.integers(min_value=0, max_value=8 * target.stat().st_size - 1))
    return source, target.name, bit


class TestEveryBitIsLoadBearing:
    """Drawn corruption of committed fixtures is never decoded wrongly."""

    @settings(max_examples=80, deadline=None)
    @given(flip=_single_bit_flips())
    @example(flip=(golden_directory("lossy", "gz"), "INFO.zlib", 5924))
    def test_any_single_bit_flip_is_detected(self, flip, tmp_path_factory):
        """A flip raises IntegrityError or decodes to the pristine addresses.

        Chunk digests cover the stored bytes, but the INFO footer covers the
        decompressed body, so a flip in a compressed INFO stream may be
        harmless; the pinned example is one.
        """
        source, name, bit = flip
        work = _copy_container(source, tmp_path_factory.mktemp("flip") / source.name)
        flip_bit(work / name, bit)
        try:
            damaged = _decode_all(work)
        except IntegrityError:
            return
        pristine = _decode_all(source)
        assert damaged.dtype == pristine.dtype
        assert np.array_equal(damaged, pristine), f"bit {bit} of {name} decoded wrongly"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_is_detected(self, data, tmp_path_factory):
        source = data.draw(st.sampled_from(_CONTAINERS), label="container")
        work = _copy_container(source, tmp_path_factory.mktemp("trunc") / source.name)
        target = data.draw(st.sampled_from(_container_files(work)), label="file")
        size = target.stat().st_size
        length = data.draw(st.integers(min_value=0, max_value=size - 1), label="keep")
        truncate_file(target, length)
        with pytest.raises(ReproError):
            # A truncated chunk fails its digest (IntegrityError); an INFO
            # truncated to zero bytes may instead read as "no INFO stream"
            # (ContainerError).  Either way the damage is *detected*.
            _decode_all(work)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_torn_write_is_detected(self, data, tmp_path_factory):
        """A zero-filled tail (size intact!) still fails its digest."""
        source = data.draw(st.sampled_from(_CONTAINERS), label="container")
        work = _copy_container(source, tmp_path_factory.mktemp("torn") / source.name)
        target = data.draw(st.sampled_from(_container_files(work)), label="file")
        size = target.stat().st_size
        keep = data.draw(st.integers(min_value=0, max_value=size - 1), label="keep")
        torn_write(target, keep)
        with pytest.raises(IntegrityError):
            _decode_all(work)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chunk_splices_are_detected(self, data, tmp_path_factory):
        """Swapping whole (individually valid!) chunk files across slots fails.

        This is the corruption digests exist for: every spliced byte is a
        perfectly valid compressed stream, so decompression succeeds and a
        digestless v1 reader would return the wrong addresses without a
        whisper.  The v2 per-chunk digest is bound to the chunk *slot*.
        """
        multi_chunk = [
            c
            for c in _CONTAINERS
            if sum(1 for p in _container_files(c) if not p.name.startswith("INFO.")) >= 2
        ]
        source = data.draw(st.sampled_from(multi_chunk), label="container")
        work = _copy_container(source, tmp_path_factory.mktemp("splice") / source.name)
        chunks = [p for p in _container_files(work) if not p.name.startswith("INFO.")]
        a, b = data.draw(
            st.permutations(chunks).map(lambda seq: seq[:2]), label="slots"
        )
        assume(a.read_bytes() != b.read_bytes())
        b.write_bytes(a.read_bytes())
        with pytest.raises(IntegrityError):
            _decode_all(work)

    def test_pristine_copies_still_decode(self, tmp_path):
        """The detection properties are not vacuous: undamaged copies pass."""
        for source in _CONTAINERS:
            work = _copy_container(source, tmp_path / f"ok_{source.name}")
            _decode_all(work)


class TestRepairSalvage:
    """``fsck --repair`` semantics, driven over drawn damage locations."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_salvage_decodes_to_the_exact_intact_prefix(self, data, tmp_path_factory):
        source = golden_directory("lossless", "bz2")
        work = _copy_container(source, tmp_path_factory.mktemp("rep") / source.name)
        chunks = [p for p in _container_files(work) if not p.name.startswith("INFO.")]
        victim = data.draw(st.sampled_from(chunks), label="chunk")
        bit = data.draw(
            st.integers(min_value=0, max_value=8 * victim.stat().st_size - 1),
            label="bit_offset",
        )
        flip_bit(victim, bit)

        salvaged_dir = work.parent / "salvaged"
        report = repair_container(work, salvaged_dir)
        victim_id = int(victim.name.split(".")[0]) - 1
        assert victim_id in report.dropped_chunks
        assert victim_id not in report.salvaged_chunks

        # The salvage is a valid container again (clean scrub) ...
        assert scrub_container(salvaged_dir).ok
        # ... its intact chunk files are byte-identical to the source ...
        for path in _container_files(salvaged_dir):
            if path.name.startswith("INFO."):
                continue
            assert path.read_bytes() == (source / path.name).read_bytes()
        # ... and it decodes to an exact prefix of the original trace.
        recovered = _decode_all(salvaged_dir)
        expected = golden_addresses()
        assert recovered.size <= expected.size
        assert np.array_equal(recovered, expected[: recovered.size])
        # Damage before the last chunk costs data; the prefix is maximal
        # only up to record granularity, but it is never empty unless the
        # first chunk died.
        if victim_id > 0:
            assert recovered.size > 0


class TestTransientFaults:
    def test_transient_eio_surfaces_as_integrity_error(self, tmp_path):
        """A failing read is reported as damage, not a crash."""
        work = _copy_container(
            golden_directory("lossless", "bz2"), tmp_path / "eio"
        )
        decoder = AtcDecoder(work)  # INFO read succeeds before the fault
        with TransientEIO(match=f"{work.name}/1.bz2", failures=1):
            with pytest.raises(IntegrityError) as excinfo:
                decoder.read_all()
        assert excinfo.value.chunk_id == 0
        # The fault was transient: a fresh decode succeeds afterwards.
        assert np.array_equal(AtcDecoder(work).read_all(), golden_addresses())
