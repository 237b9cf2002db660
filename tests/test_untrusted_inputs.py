"""Untrusted-input contract for the parsers that take outside bytes.

Any byte string handed to ``iter_k6_records``, ``iter_mase_records`` or
``service.cache.unpack_container`` must either raise a
:class:`~repro.errors.ReproError` subclass or produce records / files that
round-trip: records re-written and re-read parse back identically, and an
extracted directory re-packs and re-extracts to the same files.  Inputs are
arbitrary bytes and mutations (flips, truncations, insertions, deletions)
of valid documents, so the fuzzer spends most of its budget near the
grammar instead of on immediately-rejected noise.

Two more boundaries follow the same contract.  Bytes sent to the HTTP
layer (``read_request`` + ``Request.iter_body``) raise a typed error or
yield a body no longer than the configured cap, exactly the body a strict
RFC 9112 framing reader finds.  A file opened as a sidecar
(``SidecarReader(...).take(n)``) raises ``TraceFormatError`` or yields
records.

The same holds at two more read boundaries.  A fixed-record binary dump
(``iter_binary_records`` over any drawn ``BinaryLayout``) raises
``TraceFormatError`` exactly when a partial record trails, and otherwise
yields the addresses a pure-Python ``int.from_bytes`` oracle decodes.  A
``ResultStore`` entry of any bytes reads as a dict or as a quarantined
miss, never an exception.

A container's INFO metadata is untrusted too: the v2 footer is a
checksum, not a signature, so anyone can rewrite a metadata field and
keep the footer valid.  Whatever JSON value a field holds,
``AtcDecoder(...).read_all()`` raises a ``ReproError`` or decodes what
the undamaged container decodes, and ``repro inspect`` exits with a code.
Interval records whose lengths do not add up to ``original_length`` are
refused before any chunk file is read.
The same holds for a chunk file rewritten with any lossless header (address
count, buffer size) and any payload bytes under a recomputed digest, and
the decode stays within a fixed memory bound: a header's count bounds how
far the payload may inflate.
"""

from __future__ import annotations

import asyncio
import bz2
import dataclasses
import io
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cli import main as repro_main
from repro.core.atc import AtcDecoder, compress_trace
from repro.core.container import AtcContainer
from repro.core.integrity import chunk_digest
from repro.core.lossy import LossyConfig
from repro.core.intervals import IntervalRecord
from repro.errors import ContainerError, ReproError, TraceFormatError
from repro.experiments.store import ResultStore
from repro.service.cache import pack_container, unpack_container
from repro.service.http import HttpError, Request, read_request
from repro.traces.formats.base import TraceRecords
from repro.traces.formats.binary import BinaryLayout, iter_binary_records
from repro.traces.formats.sidecar import SidecarReader, SidecarWriter
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


# -- HTTP framing ------------------------------------------------------------

#: Body cap of the HTTP property: small, so oversize bodies are cheap to fuzz.
BODY_CAP = 100

_HEAD = b"POST /v1/compress HTTP/1.1\r\nHost: x\r\n"
_TAIL = b"z" * 500


def _chunked(size_token: bytes, data: bytes = b"") -> bytes:
    """A chunked request whose one chunk is otherwise well framed."""
    framing = b"Transfer-Encoding: chunked\r\n\r\n" + size_token + b"\r\n"
    return _HEAD + framing + data + b"\r\n0\r\n\r\n" + _TAIL


HTTP_SEEDS = (
    _HEAD + b"Content-Length: 5\r\n\r\nhello",
    _HEAD + b"Transfer-Encoding: chunked\r\n\r\n5;x=1\r\nhello\r\n3\r\nabc\r\n0\r\nT: v\r\n\r\n",
)

http_bytes = st.one_of(
    st.binary(max_size=512),
    st.builds(_mutate, st.sampled_from(HTTP_SEEDS), st.lists(_mutation, min_size=1, max_size=4)),
)


def _strict_body(data: bytes) -> Optional[bytes]:
    """The body a strict RFC 9110/9112 framing reader finds; None if malformed.

    Mirrors the head parsing of :func:`read_request` (header names stripped
    and lower-cased, values stripped of SP/HTAB, the last duplicate wins,
    chunked framing wins over Content-Length) and accepts a framing number
    only when it is ``1*DIGIT`` (Content-Length) or ``1*HEXDIG`` before an
    optional chunk extension (chunk size).
    """
    head, separator, rest = data.partition(b"\r\n\r\n")
    if not separator:
        return None
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip(" \t")
    if "chunked" in headers.get("transfer-encoding", "").lower():
        body = b""
        while True:
            line, separator, rest = rest.partition(b"\r\n")
            match = re.fullmatch(rb"([0-9A-Fa-f]+)(?:[ \t]*;.*)?", line, re.DOTALL)
            if not separator or match is None:
                return None
            size = int(match.group(1), 16)
            if size == 0:
                return body
            if rest[size : size + 2] != b"\r\n":
                return None
            body += rest[:size]
            rest = rest[size + 2 :]
    length = headers.get("content-length", "")
    if not length:
        return b""
    if not re.fullmatch("[0-9]+", length):
        return None
    return rest[: int(length)] if len(rest) >= int(length) else None


async def _serve_bytes(data: bytes):
    """Feed ``data`` to the HTTP reader.

    Returns the body bytes yielded and whether the whole body was accepted
    (``False`` on a typed error or when the client sent nothing at all).
    """
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    body = b""
    try:
        request = await read_request(reader, BODY_CAP)
        if request is None:
            return body, False
        async for piece in request.iter_body():
            body += piece
    except ReproError:
        return body, False
    return body, True


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=http_bytes)
@example(data=_chunked(b"-5"))
@example(data=_chunked(b"+5", b"hello"))
@example(data=_chunked(b"0x10", b"0123456789abcdef"))
@example(data=_chunked(b"1_0", b"0123456789abcdef"))
@example(data=_chunked(b" 5", b"hello"))
@example(data=_HEAD + b"Content-Length: +5\r\n\r\nhello")
def test_http_bytes_yield_typed_errors_or_bounded_bodies(data):
    body, accepted = asyncio.run(_serve_bytes(data))
    assert len(body) <= BODY_CAP, "the reader yielded more than the body cap"
    if accepted:
        assert body == _strict_body(data), "the reader accepted framing RFC 9112 forbids"


@pytest.mark.parametrize("token", ["-5", "+5", "0x10", "1_0", "١٢", " 5", "5 "])
@pytest.mark.parametrize("framing", ["content-length", "chunked"])
def test_non_rfc_framing_numbers_get_400_before_any_body_byte(token, framing):
    """Tokens ``int()`` accepts but RFC 9110/9112 forbid.

    The request is built directly: the latin-1 head decoder can never
    produce Arabic-Indic digits, so bytes on the wire cannot reach them.
    """

    async def run():
        reader = asyncio.StreamReader()
        if framing == "chunked":
            headers = {"transfer-encoding": "chunked"}
            reader.feed_data(token.encode() + b"\r\n")
        else:
            headers = {"content-length": token}
        reader.feed_data(_TAIL)
        reader.feed_eof()
        request = Request("POST", "/", {}, headers, reader, BODY_CAP)
        with pytest.raises(HttpError) as raised:
            async for _ in request.iter_body():
                raise AssertionError("a body byte was read")
        assert raised.value.status == 400

    asyncio.run(run())


# -- sidecar files -------------------------------------------------------------


def _sidecar_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "SIDECAR.bz2"
        with SidecarWriter(path) as writer:
            writer.append(np.array([0, 1, 2], np.uint8), np.array([3, 9, 4], np.uint64))
            writer.append(np.array([2], np.uint8), np.array([1 << 63], np.uint64))
        return path.read_bytes()


SIDECAR_SEED = _sidecar_bytes()

sidecar_files = st.one_of(
    st.binary(max_size=512),
    st.builds(_mutate, st.just(SIDECAR_SEED), st.lists(_mutation, min_size=1, max_size=4)),
    # valid bz2 around damaged frames reaches the frame parser
    st.builds(
        lambda data: bz2.compress(data),
        st.builds(
            _mutate, st.just(bz2.decompress(SIDECAR_SEED)), st.lists(_mutation, min_size=1, max_size=4)
        ),
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=sidecar_files, count=st.integers(min_value=0, max_value=6))
@example(data=b"not a bz2 stream", count=1)
@example(data=SIDECAR_SEED[: len(SIDECAR_SEED) // 2], count=4)
def test_sidecar_files_yield_format_errors_or_records(data, count):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "SIDECAR.bz2"
        path.write_bytes(data)
        try:
            with SidecarReader(path) as reader:
                kinds, cycles = reader.take(count)
        except TraceFormatError:
            return
        assert kinds.shape == cycles.shape == (count,)


class _ShortReads(io.BytesIO):
    """A stream that returns at most ``limit`` bytes per read, like a pipe."""

    def __init__(self, data: bytes, limit: int) -> None:
        super().__init__(data)
        self.limit = limit

    def read(self, size=-1):
        return super().read(self.limit if size is None or size < 0 else min(size, self.limit))


@st.composite
def binary_layouts(draw):
    record_bytes = draw(st.integers(min_value=1, max_value=24))
    address_bytes = draw(st.integers(min_value=1, max_value=min(8, record_bytes)))
    return BinaryLayout(
        record_bytes=record_bytes,
        address_offset=draw(st.integers(min_value=0, max_value=record_bytes - address_bytes)),
        address_bytes=address_bytes,
        byteorder=draw(st.sampled_from(("little", "big"))),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    layout=binary_layouts(),
    chunk_records=st.integers(min_value=1, max_value=40),
    read_limit=st.integers(min_value=1, max_value=600),
    data=st.binary(max_size=600),
)
def test_binary_records_match_the_int_from_bytes_oracle(layout, chunk_records, read_limit, data):
    size = layout.record_bytes
    complete = len(data) // size
    expected = [
        int.from_bytes(
            data[i * size + layout.address_offset : i * size + layout.address_offset + layout.address_bytes],
            layout.byteorder,
        )
        for i in range(complete)
    ]
    addresses, cycles = [], []
    try:
        for chunk in iter_binary_records(_ShortReads(data, read_limit), chunk_records, layout):
            addresses.extend(chunk.addresses.tolist())
            cycles.extend(chunk.cycles.tolist())
    except TraceFormatError:
        assert len(data) % size != 0
    else:
        assert len(data) % size == 0
    # complete records are all yielded, in order, before any error
    assert addresses == expected
    assert cycles == list(range(complete))


def _store_entry() -> bytes:
    with tempfile.TemporaryDirectory() as scratch:
        ResultStore(scratch).put("a" * 64, {"bits_per_address": 1.5, "cells": [1, 2, 3]})
        return (Path(scratch) / ("a" * 64 + ".json")).read_bytes()


STORE_SEED = _store_entry()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.one_of(
        st.binary(max_size=256),
        st.builds(_mutate, st.just(STORE_SEED), st.lists(_mutation, min_size=1, max_size=4)),
    )
)
@example(data=b"\xff\xfe not utf-8")
@example(data=b"[" * 100_000)
def test_store_entries_read_as_dicts_or_quarantined_misses(data):
    with tempfile.TemporaryDirectory() as scratch:
        store = ResultStore(scratch)
        entry = Path(scratch) / ("b" * 64 + ".json")
        entry.write_bytes(data)
        result = store.get("b" * 64)
        if result is None:
            assert store.integrity_evictions == 1 and not entry.exists()
        else:
            assert isinstance(result, dict) and store.integrity_evictions == 0


#: Every field ``AtcEncoder`` writes into the INFO metadata, plus one it does not.
_METADATA_KEYS = (
    "format", "format_version", "mode", "backend", "original_length", "interval_length",
    "threshold", "chunk_buffer_addresses", "enable_translation", "num_chunks",
    "chunk_digests", "extra",
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CONTAINER_TRACE = np.tile(np.arange(0x4000, 0x4000 + 700, dtype=np.uint64), 3)
_CONTAINER_CONFIG = LossyConfig(interval_length=500, chunk_buffer_addresses=500)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mode=st.sampled_from(["c", "k"]), key=st.sampled_from(_METADATA_KEYS), value=_json_values)
@example(mode="c", key="chunk_buffer_addresses", value=[1])
@example(mode="k", key="chunk_buffer_addresses", value="x")
@example(mode="c", key="backend", value=["bz2"])
@example(mode="k", key="original_length", value={})
@example(mode="c", key="format_version", value=True)
def test_info_metadata_values_yield_typed_errors_or_the_original_decode(mode, key, value):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "trace"
        expected = compress_trace(
            _CONTAINER_TRACE, directory, mode=mode, config=_CONTAINER_CONFIG
        ).read_all()
        container = AtcContainer(directory)
        metadata, records = container.read_info()
        metadata[key] = value
        try:
            container.write_info(metadata, records)
        except ReproError:
            return  # the writer refuses a format_version it cannot write
        try:
            decoded = AtcDecoder(directory).read_all()
        except ReproError:
            pass
        else:
            assert np.array_equal(decoded, expected)
        assert repro_main(["inspect", str(directory)]) in (0, 1, 2)


@pytest.mark.parametrize("mode", ["c", "k"])
def test_info_records_that_outgrow_original_length_are_refused_before_any_chunk(
    mode, tmp_path, monkeypatch
):
    """One more imitate record under a recomputed footer, ``original_length`` left alone."""
    directory = tmp_path / "trace"
    compress_trace(_CONTAINER_TRACE, directory, mode=mode, config=_CONTAINER_CONFIG)
    container = AtcContainer(directory)
    metadata, records = container.read_info()
    extra = IntervalRecord(
        kind="imitate",
        chunk_id=records[0].chunk_id,
        length=records[0].length,
        active_bytes=np.zeros(8, dtype=bool),
        translations=np.tile(np.arange(256, dtype=np.uint8), (8, 1)),
    )
    container.write_info(metadata, records + [extra])

    def refuse(self, chunk_id, expected_digest=None):
        raise AssertionError(f"chunk {chunk_id} was read before INFO was checked")

    monkeypatch.setattr(AtcContainer, "read_chunk", refuse)
    with pytest.raises(ContainerError, match="original_length is 2100"):
        AtcDecoder(directory)


@pytest.mark.parametrize(
    "imitated, match",
    [(0, "imitates 1600 addresses of chunk 1, which stores only 500"), (7, "which no chunk record stores")],
)
def test_imitate_records_longer_than_their_chunk_are_refused_before_any_chunk(
    imitated, match, tmp_path, monkeypatch
):
    """A 500-address chunk imitated for 1600 addresses, ``original_length`` kept honest."""
    from repro.core.fsck import scrub_container

    directory = tmp_path / "trace"
    compress_trace(_CONTAINER_TRACE, directory, mode="k", config=_CONTAINER_CONFIG)
    container = AtcContainer(directory)
    metadata, records = container.read_info()
    assert records[0].is_chunk and records[0].length == 500
    forged = IntervalRecord(
        kind="imitate",
        chunk_id=imitated,
        length=metadata["original_length"] - 500,
        active_bytes=np.zeros(8, dtype=bool),
        translations=np.tile(np.arange(256, dtype=np.uint8), (8, 1)),
    )
    container.write_info(metadata, [records[0], forged])

    def refuse(self, chunk_id, expected_digest=None):
        raise AssertionError(f"chunk {chunk_id} was read before INFO was checked")

    monkeypatch.setattr(AtcContainer, "read_chunk", refuse)
    with pytest.raises(ContainerError, match=match):
        AtcDecoder(directory).read_all()
    with pytest.raises(ContainerError, match=match):
        list(AtcDecoder(directory).iter_chunks(64))
    scrub = scrub_container(directory)
    assert scrub.info_status == "malformed" and re.search(match, scrub.info_detail)
    assert repro_main(["inspect", str(directory)]) == 2


#: ``bz2.compress(bytes(160 MiB))``: 144 bytes that inflate to 160 MiB.
_BZ2_BOMB = bytes.fromhex(
    "425a68393141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "3141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "3141592653590e09e2df015f8e4000c0000008200030804d4642a025a90a8097"
    "314159265359b877ec2c00e659c000c1000008200030cc09aa698a25146d5489451e2ee48a70a121d819682c"
)
_LOSSLESS_HEADER = struct.Struct("<4sB Q Q")
_CHUNK_PAYLOADS = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=4096).map(bz2.compress),
    st.integers(min_value=0, max_value=1200).map(lambda count: bz2.compress(bytes(8 * count))),
)
_DECODE_PEAK_BYTES = 64 << 20


def test_the_bomb_inflates_past_the_memory_bound():
    decoder = bz2.BZ2Decompressor()
    assert len(decoder.decompress(_BZ2_BOMB, max_length=_DECODE_PEAK_BYTES + 1)) > _DECODE_PEAK_BYTES


@pytest.mark.parametrize("mode", ["c", "k"])
def test_chunk_records_longer_than_the_chunk_unit_are_refused_before_any_chunk(
    mode, tmp_path, monkeypatch
):
    """A 67-byte chunk whose header declares 4 194 304 addresses (32 MiB of
    zeros through bz2), its digest, its record's length and
    ``original_length`` rewritten under a recomputed footer.  Every other
    INFO check passes, so only the container's own chunk unit (500 here)
    can stop the decode before the chunk inflates."""
    from repro.core.fsck import scrub_container

    declared = 4_194_304
    directory = tmp_path / "trace"
    compress_trace(_CONTAINER_TRACE, directory, mode=mode, config=_CONTAINER_CONFIG)
    container = AtcContainer(directory)
    metadata, records = container.read_info()
    assert records[0].is_chunk and records[0].length == 500
    forged = _LOSSLESS_HEADER.pack(b"ATCL", 1, declared, 500) + bz2.compress(bytes(8 * declared))
    assert len(forged) == 67
    container.write_chunk(records[0].chunk_id, forged)
    metadata["chunk_digests"][str(records[0].chunk_id)] = chunk_digest(forged)
    metadata["original_length"] += declared - 500
    container.write_info(metadata, [dataclasses.replace(records[0], length=declared)] + records[1:])

    def refuse(self, chunk_id, expected_digest=None):
        raise AssertionError(f"chunk {chunk_id} was read before INFO was checked")

    monkeypatch.setattr(AtcContainer, "read_chunk", refuse)
    unit = "interval_length" if mode == "k" else "chunk_buffer_addresses"
    match = f"record 0 stores {declared} addresses in chunk 1, more than the {unit} of 500"
    with pytest.raises(ContainerError, match=match):
        AtcDecoder(directory)
    scrub = scrub_container(directory)
    assert scrub.info_status == "malformed" and match in scrub.info_detail
    assert repro_main(["inspect", str(directory)]) == 2


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mode=st.sampled_from(["c", "k"]),
    chunk_pick=st.integers(min_value=0, max_value=10),
    count=st.one_of(st.sampled_from([0, 1, 100, 500]), st.integers(min_value=0, max_value=2**64 - 1)),
    buffer_addresses=st.one_of(st.sampled_from([1, 500]), st.integers(min_value=0, max_value=2**64 - 1)),
    version=st.sampled_from([1, 1, 1, 2]),
    payload=_CHUNK_PAYLOADS,
)
@example(mode="c", chunk_pick=0, count=1, buffer_addresses=1_000_000, version=1, payload=_BZ2_BOMB)
@example(mode="c", chunk_pick=0, count=500, buffer_addresses=500, version=1, payload=_BZ2_BOMB)
@example(mode="k", chunk_pick=0, count=500, buffer_addresses=500, version=1, payload=_BZ2_BOMB)
def test_chunk_headers_and_payloads_yield_typed_errors_or_the_original_decode(
    mode, chunk_pick, count, buffer_addresses, version, payload
):
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "trace"
        expected = compress_trace(
            _CONTAINER_TRACE, directory, mode=mode, config=_CONTAINER_CONFIG
        ).read_all()
        container = AtcContainer(directory)
        metadata, records = container.read_info()
        chunk_ids = container.chunk_ids()
        chunk_id = chunk_ids[chunk_pick % len(chunk_ids)]
        forged = _LOSSLESS_HEADER.pack(b"ATCL", version, count, buffer_addresses) + payload
        container.write_chunk(chunk_id, forged)
        metadata["chunk_digests"][str(chunk_id)] = chunk_digest(forged)
        container.write_info(metadata, records)
        tracemalloc.start()
        try:
            try:
                decoded = AtcDecoder(directory).read_all()
            except ReproError:
                pass
            else:
                assert np.array_equal(decoded, expected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _DECODE_PEAK_BYTES, f"decode peaked at {peak / 2**20:.0f} MiB"
