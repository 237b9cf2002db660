"""Untrusted-input contract for the text trace parsers and the tar wire format.

Any byte string handed to ``iter_k6_records``, ``iter_mase_records`` or
``service.cache.unpack_container`` must either raise a
:class:`~repro.errors.ReproError` subclass or produce records / files that
round-trip: records re-written and re-read parse back identically, and an
extracted directory re-packs and re-extracts to the same files.  Inputs are
arbitrary bytes and mutations (flips, truncations, insertions, deletions)
of valid documents, so the fuzzer spends most of its budget near the
grammar instead of on immediately-rejected noise.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.service.cache import pack_container, unpack_container
from repro.traces.formats.base import TraceRecords
from repro.traces.formats.text import (
    iter_k6_records,
    iter_mase_records,
    write_k6_records,
    write_mase_records,
)

_RECORDS = TraceRecords(
    np.array([0x40, 0xFFFF_FFFF_FFFF_FFC0, 0x1000], dtype=np.uint64),
    np.array([0, 1, 2], dtype=np.uint8),
    np.array([7, 8, 1 << 40], dtype=np.uint64),
)


def _text(writer) -> bytes:
    sink = io.BytesIO()
    writer(sink, [_RECORDS])
    return b"# comment\n\n" + sink.getvalue()


def _archive() -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        (directory / "INFO.bz2").write_bytes(b"BZh9" + bytes(range(64)))
        (directory / "1.bz2").write_bytes(b"chunk payload " * 40)
        return pack_container(directory)


SEEDS = (_text(write_k6_records), _text(write_mase_records), _archive())

_mutation = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 1 << 20), st.just(0)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.integers(0, 255)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 20), st.integers(1, 64)),
)


def _mutate(seed: bytes, mutations) -> bytes:
    data = bytearray(seed)
    for kind, position, value in mutations:
        if not data:
            break
        at = position % len(data)
        if kind == "flip":
            data[at] ^= value
        elif kind == "cut":
            del data[at:]
        elif kind == "insert":
            data.insert(at, value)
        else:
            del data[at : at + value]
    return bytes(data)


untrusted_bytes = st.one_of(
    st.binary(max_size=2048),
    st.builds(_mutate, st.sampled_from(SEEDS), st.lists(_mutation, min_size=1, max_size=4)),
)


def _read_text(reader, data: bytes):
    """All records of ``data`` as one array triple, or None on a typed error."""
    try:
        # A tiny chunk size exercises the reader's line carry-over too.
        chunks = list(reader(io.BytesIO(data), chunk_records=3))
    except ReproError:
        return None
    return tuple(
        np.concatenate([getattr(chunk, field) for chunk in chunks] or [np.empty(0, dtype)])
        for field, dtype in (("addresses", np.uint64), ("kinds", np.uint8), ("cycles", np.uint64))
    )


def _check_text_round_trip(reader, writer, data: bytes) -> None:
    parsed = _read_text(reader, data)
    if parsed is None:
        return
    sink = io.BytesIO()
    writer(sink, [TraceRecords(*parsed)])
    again = _read_text(reader, sink.getvalue())
    assert again is not None, "re-written records failed to parse"
    for first, second in zip(parsed, again):
        assert np.array_equal(first, second)


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _check_archive_round_trip(data: bytes) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        first = Path(scratch) / "first"
        try:
            extracted = unpack_container(data, first)
        except ReproError:
            assert not first.exists(), "a refused archive left its destination behind"
            return
        files = _files(first)
        assert 1 <= len(files) <= extracted
        second = Path(scratch) / "second"
        assert unpack_container(pack_container(first), second) == len(files)
        assert _files(second) == files


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=untrusted_bytes)
def test_untrusted_bytes_yield_typed_errors_or_round_trips(data):
    _check_text_round_trip(iter_k6_records, write_k6_records, data)
    _check_text_round_trip(iter_mase_records, write_mase_records, data)
    _check_archive_round_trip(data)


def test_seeds_are_valid_documents():
    """The mutation seeds themselves parse, so mutations start near the grammar."""
    for reader, seed in zip((iter_k6_records, iter_mase_records), SEEDS):
        parsed = _read_text(reader, seed)
        assert parsed is not None and np.array_equal(parsed[0], _RECORDS.addresses)
    with tempfile.TemporaryDirectory() as scratch:
        assert unpack_container(SEEDS[2], Path(scratch) / "c") == 2
