"""Tests of the byte-level compression back-ends."""

from __future__ import annotations

import bz2
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend as backend_module
from repro.core.atc import MODE_LOSSLESS, AtcDecoder, AtcEncoder
from repro.core.backend import (
    CompressionBackend,
    available_backends,
    backend_aliases,
    bz2_block_starts,
    get_backend,
    register_alias,
    register_backend,
)
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig
from repro.errors import CodecError, ConfigurationError, IntegrityError
from repro.testing.faults import flip_bit

SRC = Path(__file__).resolve().parents[2] / "src"


class TestBackendRegistry:
    def test_standard_backends_are_registered(self):
        names = available_backends()
        for expected in ("bz2", "zlib", "gz", "lzma", "xz", "store"):
            assert expected in names

    def test_get_backend_by_name(self):
        backend = get_backend("bz2")
        assert backend.name == "bz2"

    def test_get_backend_passthrough_instance(self):
        backend = get_backend("zlib")
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("zstd-not-here")

    def test_register_custom_backend(self):
        custom = CompressionBackend("reverse", lambda d: d[::-1], lambda d: d[::-1])
        register_backend(custom)
        assert get_backend("reverse").roundtrip(b"hello") == b"hello"


class TestBackendAliases:
    def test_gz_and_xz_resolve_to_canonical_backends(self):
        assert get_backend("gz") is get_backend("zlib")
        assert get_backend("xz") is get_backend("lzma")
        assert get_backend("gz").name == "zlib"
        assert get_backend("xz").name == "lzma"

    def test_alias_mapping_is_deterministic(self):
        aliases = backend_aliases()
        assert aliases["gz"] == "zlib"
        assert aliases["xz"] == "lzma"
        assert list(aliases) == sorted(aliases)

    def test_available_backends_sorted_and_include_aliases(self):
        names = available_backends()
        assert list(names) == sorted(names)
        assert "gz" in names and "xz" in names

    def test_alias_to_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError):
            register_alias("nope", "missing-backend")

    def test_alias_shadowing_backend_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_alias("bz2", "zlib")

    def test_registered_backend_overrides_alias(self):
        """Substituting an instrumented back-end under an alias name works."""
        calls = []

        def spy_compress(data):
            calls.append(len(data))
            return bytes(data)

        from repro.core.backend import _BACKENDS

        try:
            register_backend(CompressionBackend("gz", spy_compress, lambda d: bytes(d)))
            assert get_backend("gz").name == "gz"
            get_backend("gz").compress(b"xyz")
            assert calls == [3]
        finally:
            # Restore the stock registry: drop the instrumented back-end and
            # re-point the alias at zlib.
            _BACKENDS.pop("gz", None)
            register_alias("gz", "zlib")
        assert get_backend("gz") is get_backend("zlib")

    def test_custom_alias_registration(self):
        register_backend(
            CompressionBackend("identity2", lambda d: bytes(d), lambda d: bytes(d)),
            aliases=("id2",),
        )
        assert get_backend("id2") is get_backend("identity2")


class TestBackendRoundtrips:
    @pytest.mark.parametrize("name", ["bz2", "zlib", "gz", "lzma", "xz", "store"])
    def test_roundtrip_simple_payload(self, name):
        backend = get_backend(name)
        payload = b"the quick brown fox " * 100
        assert backend.roundtrip(payload) == payload

    @pytest.mark.parametrize("name", ["bz2", "zlib", "lzma"])
    def test_compresses_redundant_data(self, name):
        backend = get_backend(name)
        payload = b"\x00" * 100_000
        assert len(backend.compress(payload)) < len(payload) // 100

    @pytest.mark.parametrize("name", ["bz2", "zlib", "store"])
    def test_empty_payload(self, name):
        backend = get_backend(name)
        assert backend.roundtrip(b"") == b""

    def test_store_backend_is_identity(self):
        backend = get_backend("store")
        payload = bytes(range(256))
        assert backend.compress(payload) == payload
        assert backend.decompress(payload) == payload

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=2048), st.sampled_from(["bz2", "zlib", "lzma", "store"]))
    def test_roundtrip_arbitrary_bytes(self, payload, name):
        assert get_backend(name).roundtrip(payload) == payload


# -- block-parallel bz2 ------------------------------------------------------------------

#: libbzip2's level-9 block capacity in RLE1 bytes (``nblockMAX``).
BLOCK = 899_981


def _reference_block_starts(data: bytes, used: int = 0) -> list:
    """libbzip2's block cuts, one RLE1 piece at a time (the test oracle).

    A run of equal bytes is cut into pieces of at most 255; a piece of 4
    or more bytes takes 5 RLE bytes.  A piece that starts while the block
    holds ``BLOCK`` or more RLE bytes opens the next block.  ``used`` is
    the RLE bytes already in the open block.
    """
    values = np.frombuffer(data, dtype=np.uint8)
    bounds = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), values.size]
    starts, pos = [], 0
    for low, high in zip(bounds, bounds[1:]):
        run = high - low
        while run:
            piece = min(run, 255)
            if used >= BLOCK:
                starts.append(pos)
                used = 0
            used += piece if piece < 4 else 5
            pos += piece
            run -= piece
    return starts


def _no_runs(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random bytes in which no byte equals its neighbour (RLE1 copies them)."""
    steps = rng.integers(1, 256, size, dtype=np.uint16)
    return (np.cumsum(steps) % 256).astype(np.uint8)


def _runs(rng: np.random.Generator, count: int, lengths) -> np.ndarray:
    """``count`` runs of lengths drawn from ``lengths``, neighbours differing."""
    return np.repeat(_no_runs(rng, count), rng.choice(lengths, count))


_NO_RUNS = _no_runs(np.random.default_rng(3), BLOCK + 4_100)


def _straddling(run: int, offset: int) -> bytes:
    """A run of ``run`` bytes after ``BLOCK - offset`` one-byte pieces."""
    head, tail = _NO_RUNS[: BLOCK - offset], _NO_RUNS[-4_000:]
    byte = next(b for b in range(256) if b not in (head[-1], tail[0]))
    return np.concatenate([head, np.full(run, byte, np.uint8), tail]).tobytes()


def _stream_count(payload: bytes) -> int:
    return payload.count(b"BZh91AY&SY")


def _bzip2_block_crcs(data: bytes) -> list:
    """The per-block CRCs ``bzip2 -vvv`` reports for ``data``."""
    report = subprocess.run(
        ["bzip2", "-vvv", "-9", "-c"], input=data, capture_output=True, check=True
    ).stderr.decode()
    return re.findall(r"block \d+: crc = (0x[0-9a-f]+)", report)


@pytest.fixture(scope="module")
def multi_block() -> bytes:
    """~7.5 MB spanning three bzip2 blocks: high-entropy bytes and long runs."""
    rng = np.random.default_rng(2024)
    parts = [
        rng.integers(0, 256, 900_000, dtype=np.uint8),
        _runs(rng, 60_000, [1, 2, 3, 4, 5, 255, 256, 259]),
        rng.integers(0, 256, 700_000, dtype=np.uint8),
    ]
    return np.concatenate(parts).tobytes()


@pytest.fixture(scope="module")
def multi_block_payload(multi_block) -> bytes:
    return get_backend("bz2").compress(multi_block)


class TestBz2BlockCuts:
    """The cut points are exactly where libbzip2 closes its blocks."""

    def test_inputs_of_one_block_have_no_cut(self):
        assert bz2_block_starts(b"") == []
        exactly_one_block = _no_runs(np.random.default_rng(1), BLOCK).tobytes()
        assert bz2_block_starts(exactly_one_block) == []
        assert bz2_block_starts(exactly_one_block + b"\x00") == [BLOCK]

    def test_multi_block_fixture_matches_the_oracle(self, multi_block):
        starts = bz2_block_starts(multi_block)
        assert len(starts) == 2
        assert starts == _reference_block_starts(multi_block)

    @pytest.mark.parametrize("run", [4, 255, 256, 259])
    @pytest.mark.parametrize("offset", [-3, 0, 1, 3, 4, 5, 255, 256])
    def test_runs_straddling_a_cut(self, run, offset):
        data = _straddling(run, offset)
        head = BLOCK - offset
        if offset <= 0:
            expected = [BLOCK]  # the one-byte pieces alone fill the block
        else:
            expected = [head + cut for cut in _reference_block_starts(data[head:], used=head)]
        assert bz2_block_starts(data) == expected
        assert len(expected) == 1

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.sampled_from([(1, 2, 3), (1, 4), (3, 4, 5), (1, 254, 255, 256, 259), (600,)]),
        window=st.sampled_from([1031, 1 << 18]),
    )
    def test_cuts_match_the_oracle_for_any_window(self, seed, lengths, window):
        rng = np.random.default_rng(seed)
        data = _runs(rng, 1_200_000 // int(np.mean(lengths)), lengths).tobytes()
        expected = _reference_block_starts(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend_module, "_SPLIT_WINDOW", window)
            assert bz2_block_starts(data) == expected

    def test_constant_50mb_buffer(self):
        data = bytes(50_000_000)
        # 50M zeros are 196079 pieces of 255 (5 RLE bytes each) plus one of 35.
        assert bz2_block_starts(data) == [255 * (BLOCK // 5 + 1)]
        payload = get_backend("bz2").compress(data)
        serial = bz2.compress(data, 9)
        assert len(serial) <= len(payload) <= len(serial) + 15
        assert get_backend("bz2").decompress(payload) == data


class TestBz2BlockParallelStreams:
    """Compressed output: one stream per block, readable by any bz2 reader."""

    def test_small_inputs_compress_exactly_as_before(self):
        for data in (b"", b"abc" * 1000, bytes(700_000)):
            assert get_backend("bz2").compress(data) == bz2.compress(data, 9)

    def test_round_trip_through_both_decoders(self, multi_block, multi_block_payload):
        assert _stream_count(multi_block_payload) == 3
        assert get_backend("bz2").decompress(multi_block_payload) == multi_block
        assert bz2.decompress(multi_block_payload) == multi_block

    def test_size_oracle(self, multi_block, multi_block_payload):
        serial = len(bz2.compress(multi_block, 9))
        extra = 15 * (_stream_count(multi_block_payload) - 1)
        assert serial <= len(multi_block_payload) <= serial + extra

    def test_each_stream_is_one_serial_block(self, multi_block, multi_block_payload):
        bounds = [0, *bz2_block_starts(multi_block), len(multi_block)]
        pieces = [multi_block[low:high] for low, high in zip(bounds, bounds[1:])]
        assert multi_block_payload == b"".join(bz2.compress(piece, 9) for piece in pieces)

    @pytest.mark.skipif(shutil.which("bzip2") is None, reason="no bzip2 binary on PATH")
    @pytest.mark.parametrize("case", ["multi_block", "run_4", "run_259"])
    def test_block_crcs_match_bzip2(self, case, multi_block):
        data = {
            "multi_block": multi_block,
            "run_4": _straddling(4, 3),
            "run_259": _straddling(259, 256),
        }[case]
        bounds = [0, *bz2_block_starts(data), len(data)]
        per_piece = [_bzip2_block_crcs(data[low:high]) for low, high in zip(bounds, bounds[1:])]
        assert all(len(crcs) == 1 for crcs in per_piece)
        assert [crcs[0] for crcs in per_piece] == _bzip2_block_crcs(data)


class TestBz2ParallelDecoder:
    """The parallel decoder always returns what ``bz2.decompress`` returns."""

    def test_false_stream_starts_fall_back(self, multi_block, multi_block_payload, monkeypatch):
        # Every "B" byte now looks like a stream start, including many inside
        # the streams, so every parallel attempt must be discarded.
        monkeypatch.setattr(backend_module, "_BZ2_STREAM_START", b"B")
        assert multi_block_payload.count(b"B") > _stream_count(multi_block_payload)
        assert get_backend("bz2").decompress(multi_block_payload) == multi_block

    def test_trailing_garbage_is_ignored_like_bz2(self, multi_block, multi_block_payload):
        payload = multi_block_payload + b"BZh91AY&SY not a stream"
        assert get_backend("bz2").decompress(payload) == bz2.decompress(payload)

    def test_large_single_stream_payloads_still_decode(self, multi_block):
        assert get_backend("bz2").decompress(bz2.compress(multi_block, 9)) == multi_block

    def test_large_single_stream_lossless_chunks_still_decode(self):
        addresses = np.random.default_rng(5).integers(0, 1 << 40, 150_000, dtype=np.uint64)
        serial_bz2 = CompressionBackend(
            "bz2", lambda data: bz2.compress(data, 9), bz2.decompress
        )
        payload = LosslessCodec(backend=serial_bz2).compress(addresses)
        assert _stream_count(payload) == 1
        assert np.array_equal(LosslessCodec().decompress(payload), addresses)

    @staticmethod
    def _same_as_serial(payload: bytes) -> None:
        """The back-end returns or raises exactly what ``bz2.decompress`` does."""
        serial = backend_module._checked_decompress("bz2", bz2.decompress)
        try:
            expected = serial(payload)
        except CodecError as error:
            with pytest.raises(CodecError, match=re.escape(str(error))):
                get_backend("bz2").decompress(payload)
        else:
            assert get_backend("bz2").decompress(payload) == expected

    @pytest.mark.parametrize("where", [0.2, 0.5, 0.9])
    def test_bit_flips_decode_like_serial_bz2(self, multi_block_payload, where):
        damaged = bytearray(multi_block_payload)
        damaged[int(where * len(damaged))] ^= 0x10
        self._same_as_serial(bytes(damaged))

    @pytest.mark.parametrize("where", [0.5, 0.99])
    def test_truncations_decode_like_serial_bz2(self, multi_block_payload, where):
        self._same_as_serial(multi_block_payload[: int(where * len(multi_block_payload))])

    @pytest.fixture(scope="class")
    def lossless_payload(self):
        addresses = np.random.default_rng(5).integers(0, 1 << 40, 250_000, dtype=np.uint64)
        payload = LosslessCodec().compress(addresses)
        assert _stream_count(payload) >= 2
        return payload

    @pytest.mark.parametrize("where", [0.1, 0.5, 0.9, 0.99])
    def test_bit_flipped_lossless_chunks_raise_codec_error(self, lossless_payload, where):
        damaged = bytearray(lossless_payload)
        damaged[int(where * len(damaged))] ^= 0x10
        with pytest.raises(CodecError):
            LosslessCodec().decompress(bytes(damaged))

    @pytest.mark.parametrize("where", [0.3, 0.9, 0.999])
    def test_truncated_lossless_chunks_raise_codec_error(self, lossless_payload, where):
        with pytest.raises(CodecError):
            LosslessCodec().decompress(lossless_payload[: int(where * len(lossless_payload))])

    def test_lossless_chunk_cut_at_a_stream_boundary_raises_codec_error(self, lossless_payload):
        boundary = lossless_payload.rfind(b"BZh91AY&SY")
        with pytest.raises(CodecError):
            LosslessCodec().decompress(lossless_payload[:boundary])

    def test_damaged_multi_stream_chunk_fails_its_digest(self, tmp_path):
        addresses = np.random.default_rng(9).integers(0, 1 << 40, 250_000, dtype=np.uint64)
        directory = tmp_path / "container"
        with AtcEncoder(directory, mode=MODE_LOSSLESS, config=LossyConfig()) as encoder:
            encoder.code_many(addresses)
        chunk = directory / "1.bz2"
        assert _stream_count(chunk.read_bytes()) >= 2
        assert np.array_equal(AtcDecoder(directory).read_all(), addresses)
        flip_bit(chunk, 8 * chunk.stat().st_size // 2)
        with pytest.raises(IntegrityError):
            AtcDecoder(directory).read_all()


class TestBoundedDecompression:
    """``decompress_at_most``: the output of a payload never passes the bound."""

    @pytest.mark.parametrize("name", ["bz2", "zlib", "lzma", "store"])
    def test_exact_bound_decodes_and_one_byte_less_raises(self, name):
        backend = get_backend(name)
        data = bytes(range(256)) * 40
        payload = backend.compress(data)
        assert backend.decompress_bounded is not None
        assert backend.decompress_at_most(payload, len(data)) == data
        with pytest.raises(CodecError, match="decompresses to more than"):
            backend.decompress_at_most(payload, len(data) - 1)

    @pytest.mark.parametrize("name", ["bz2", "zlib", "lzma"])
    def test_truncated_payloads_still_raise_under_a_bound(self, name):
        backend = get_backend(name)
        payload = backend.compress(bytes(range(256)) * 40)
        with pytest.raises(CodecError):
            backend.decompress_at_most(payload[: len(payload) // 2], 1 << 20)

    def test_parallel_streams_share_one_budget(self, multi_block, multi_block_payload):
        bz2_backend = get_backend("bz2")
        assert bz2_backend.decompress_at_most(multi_block_payload, len(multi_block)) == multi_block
        for bound in (len(multi_block) - 1, len(multi_block) // 2, 0):
            with pytest.raises(CodecError, match="decompresses to more than"):
                bz2_backend.decompress_at_most(multi_block_payload, bound)

    # The lzma decoder allocates its 8 MiB dictionary whatever the output.
    @pytest.mark.parametrize("name, allowance", [("bz2", 1 << 20), ("zlib", 1 << 20), ("lzma", 9 << 20)])
    def test_a_bomb_is_stopped_without_inflating(self, name, allowance):
        backend = get_backend(name)
        bomb = backend.compress(bytes(16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="decompresses to more than 8 bytes"):
                backend.decompress_at_most(bomb, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < allowance

    def test_backend_without_a_bounded_decoder_is_checked_after_decoding(self):
        plain = CompressionBackend("plain", lambda data: bytes(data), lambda data: bytes(data))
        assert plain.decompress_at_most(b"abcd", 4) == b"abcd"
        with pytest.raises(CodecError, match="plain data decompresses to more than 3 bytes"):
            plain.decompress_at_most(b"abcd", 3)

    def test_the_shared_budget_loses_no_update_under_contention(self):
        threads, spends = 8, 2_000
        budget = backend_module._Budget("test", threads * spends)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: [budget.spend(1) for _ in range(spends)])
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert budget.left == 0 and budget.cap() == 1
        with pytest.raises(CodecError, match="more than 16000 bytes"):
            budget.spend(1)

    def test_bounds_past_the_address_space_are_clamped(self):
        assert get_backend("bz2").decompress_at_most(bz2.compress(b"abc"), 1 << 70) == b"abc"


def _compress_in_child(data: bytes, connection) -> None:
    connection.send_bytes(get_backend("bz2").compress(data))
    connection.close()


_AFFINITY_SCRIPT = """
import hashlib, os, sys, tempfile
from pathlib import Path
import numpy as np
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro.core import parallel
from repro.core.atc import MODE_LOSSLESS, AtcEncoder
from repro.core.lossy import LossyConfig
addresses = np.random.default_rng(11).integers(0, 1 << 40, 250_000, dtype=np.uint64)
directory = Path(tempfile.mkdtemp()) / "container"
with AtcEncoder(directory, mode=MODE_LOSSLESS, config=LossyConfig()) as encoder:
    encoder.code_many(addresses)
for path in sorted(directory.iterdir()):
    print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
print("pool", "serial" if parallel._process_pool() is None else "thread")
"""


class TestBz2PoolIsolation:
    """Same bytes on every CPU count, and in forked children."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_forked_child_compresses_identically(self, multi_block, multi_block_payload):
        # The parent's helper threads exist and have run before the fork.
        assert get_backend("bz2").compress(multi_block) == multi_block_payload
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a process that has threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            child = context.Process(target=_compress_in_child, args=(multi_block, sender))
            child.start()
        sender.close()
        try:
            assert receiver.poll(120), "forked child produced no output"
            assert receiver.recv_bytes() == multi_block_payload
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
    def test_containers_are_identical_on_one_and_all_cpus(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        outputs = {}
        for cpus in ("one", "all"):
            outputs[cpus] = subprocess.run(
                [sys.executable, "-c", _AFFINITY_SCRIPT, cpus],
                env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
            ).stdout.splitlines()
        assert outputs["one"][-1] == "pool serial"
        if len(os.sched_getaffinity(0)) > 1:
            assert outputs["all"][-1] == "pool thread"
        assert outputs["one"][:-1] == outputs["all"][:-1]
        assert outputs["one"][0].startswith("1.bz2")
