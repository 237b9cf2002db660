"""End-to-end tests of the ATC HTTP service against a live in-process server.

One module-scoped :class:`~repro.service.BackgroundServer` hosts every test
here (startup costs a thread and a socket, not worth paying per test);
behavioural knobs that need their own server (timeouts, saturation, drain)
live in ``tests/service/test_limits.py`` instead.
"""

from __future__ import annotations

import http.client
import json
import shutil
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.atc import compress_stream
from repro.core.lossy import LossyConfig
from repro.service import BackgroundServer, ServiceConfig, pack_container, unpack_container
from repro.service.metrics import METRICS_SCHEMA

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "golden"


def make_trace(addresses: int = 20_000, modulus: int = 700) -> np.ndarray:
    return (np.arange(addresses, dtype=np.uint64) * np.uint64(31)) % np.uint64(modulus)


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(port=0, max_connections=8, workers=1, request_timeout=60.0)
    with BackgroundServer(config) as running:
        assert running.wait_ready(10.0)
        yield running
    assert running.exit_code == 0


@pytest.fixture(scope="module")
def call(server):
    def request(method, path, body=None, headers=None):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(method, path, body=body, headers=headers or {})
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    return request


class TestCompressDecompressRoundTrip:
    def test_round_trip_is_byte_identical(self, call):
        trace = make_trace()
        raw = trace.tobytes()
        status, headers, container = call("POST", "/v1/compress?mode=c", raw)
        assert status == 200
        assert headers["Content-Type"] == "application/x-tar"
        assert headers["X-Atc-Addresses"] == str(trace.size)
        status, _, decoded = call("POST", "/v1/decompress", container)
        assert status == 200
        assert decoded == raw

    def test_served_container_matches_the_library_encoder(self, call, tmp_path):
        trace = make_trace(12_000, 450)
        status, _, served = call(
            "POST",
            "/v1/compress?mode=c&backend=bz2&interval_length=20000"
            "&chunk_buffer_addresses=1000000",
            trace.tobytes(),
        )
        assert status == 200
        config = LossyConfig(
            interval_length=20_000, chunk_buffer_addresses=1_000_000, backend="bz2"
        )
        compress_stream([trace], tmp_path / "local", mode="c", config=config)
        assert served == pack_container(tmp_path / "local")

    def test_lossy_mode_round_trips_through_the_service(self, call):
        trace = make_trace(30_000, 300)
        status, _, container = call(
            "POST", "/v1/compress?mode=k&interval_length=5000&threshold=0.2", trace.tobytes()
        )
        assert status == 200
        status, headers, decoded = call("POST", "/v1/decompress", container)
        assert status == 200
        # Lossy decode approximates: same length, same dtype framing.
        assert len(decoded) == trace.size * 8
        assert headers["X-Atc-Addresses"] == str(trace.size)

    def test_chunk_addresses_past_the_trace_decodes_the_same_bytes(self, call):
        trace = make_trace(12_000, 300)
        status, _, container = call(
            "POST", "/v1/compress?mode=k&interval_length=5000&threshold=0.2", trace.tobytes()
        )
        assert status == 200
        status, _, decoded = call("POST", "/v1/decompress", container)
        assert status == 200
        status, _, huge = call("POST", "/v1/decompress?chunk_addresses=1099511627776", container)
        assert status == 200
        assert huge == decoded and len(decoded) == trace.size * 8

    def test_identical_request_hits_the_dedup_cache(self, call):
        raw = make_trace(9_000, 123).tobytes()
        path = "/v1/compress?mode=c&backend=zlib"
        status, first_headers, first = call("POST", path, raw)
        assert status == 200
        status, second_headers, second = call("POST", path, raw)
        assert status == 200
        assert first_headers["X-Atc-Cache"] == "miss"
        assert second_headers["X-Atc-Cache"] == "hit"
        assert second_headers["X-Atc-Key"] == first_headers["X-Atc-Key"]
        assert second == first

    def test_different_parameters_do_not_share_cache_entries(self, call):
        raw = make_trace(9_000, 123).tobytes()
        status, headers, _ = call("POST", "/v1/compress?mode=c&backend=bz2", raw)
        assert status == 200
        status, other, _ = call("POST", "/v1/compress?mode=c&backend=lzma", raw)
        assert status == 200
        assert other["X-Atc-Key"] != headers["X-Atc-Key"]

    def test_chunked_transfer_encoding_uploads_work(self, call, server):
        raw = make_trace(4_000, 77).tobytes()
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/compress?mode=c")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            for start in range(0, len(raw), 5_000):
                piece = raw[start:start + 5_000]
                connection.send(b"%x\r\n" % len(piece) + piece + b"\r\n")
            connection.send(b"0\r\n\r\n")
            response = connection.getresponse()
            container = response.read()
            assert response.status == 200
        finally:
            connection.close()
        status, _, decoded = call("POST", "/v1/decompress", container)
        assert status == 200 and decoded == raw


class TestInspectAndSweep:
    def test_inspect_reports_container_summary(self, call):
        trace = make_trace(15_000, 250)
        status, _, container = call("POST", "/v1/compress?mode=c", trace.tobytes())
        assert status == 200
        status, headers, body = call("POST", "/v1/inspect", container)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        summary = json.loads(body)
        assert summary["intervals"] >= 1
        assert summary["imitated_intervals"] == 0  # lossless never imitates
        assert summary["compressed_bytes"] > 0
        assert summary["bits_per_address"] > 0
        assert summary["metadata"]["mode"] == "lossless"

    @pytest.mark.parametrize("fixture", ["lossy_bz2", "v1/lossy_bz2"])
    def test_inspect_summary_matches_the_local_decoder(self, call, fixture):
        """A lossy summary counts imitations; a v1 container stays readable."""
        from repro.core.atc import AtcDecoder

        decoder = AtcDecoder(GOLDEN / fixture)
        status, _, body = call("POST", "/v1/inspect", pack_container(GOLDEN / fixture))
        assert status == 200
        summary = json.loads(body)
        imitated = len(decoder.records) - len(decoder.container.chunk_ids())
        assert imitated > 0
        assert summary["intervals"] == len(decoder.records)
        assert summary["imitated_intervals"] == imitated
        assert summary["compressed_bytes"] == decoder.compressed_bytes()
        assert summary["bits_per_address"] == pytest.approx(decoder.bits_per_address())
        assert summary["metadata"]["format_version"] == decoder.format_version

    def test_sweep_runs_a_small_grid(self, call):
        spec = {
            "name": "service-sweep",
            "workloads": [{"name": "429.mcf", "references": 2_000, "seed": 0}],
            "codecs": [{"kind": "raw"}, {"kind": "unshuffle"}],
            "scale": {"small_buffer": 4_096, "interval_length": 1_000},
        }
        status, _, body = call("POST", "/v1/sweep", json.dumps(spec).encode())
        assert status == 200
        result = json.loads(body)
        assert result["name"] == "service-sweep"
        assert len(result["rows"]) == 2

    def test_sweep_rejects_invalid_json_and_invalid_specs(self, call):
        status, _, body = call("POST", "/v1/sweep", b"{not json")
        assert status == 400 and b"not valid JSON" in body
        status, _, body = call("POST", "/v1/sweep", json.dumps({"name": "x"}).encode())
        assert status == 400  # a sweep needs workloads and codecs

    def test_sweep_rejects_the_removed_delta_codec(self, call):
        spec = {"workloads": ["429.mcf"], "codecs": [{"kind": "delta"}]}
        status, _, body = call("POST", "/v1/sweep", json.dumps(spec).encode())
        assert status == 400 and b"unknown codec kind 'delta'" in body

    def test_sweep_rejects_vpc_with_another_back_end(self, call):
        spec = {"workloads": ["429.mcf"], "codecs": [{"kind": "vpc", "backend": "zlib"}]}
        status, _, body = call("POST", "/v1/sweep", json.dumps(spec).encode())
        assert status == 400 and b"bz2 only" in body

    def test_sweep_rejects_a_replacement_policy(self, call):
        spec = {"workloads": ["429.mcf"], "codecs": ["raw"], "filters": [{"policy": "lru"}]}
        status, _, body = call("POST", "/v1/sweep", json.dumps(spec).encode())
        assert status == 400 and b"policy" in body


class TestClientErrors:
    def test_misaligned_trace_body_is_a_400(self, call):
        status, _, body = call("POST", "/v1/compress", b"\x01\x02\x03")
        assert status == 400
        assert b"not a multiple of 8" in body

    def test_empty_bodies_are_400s(self, call):
        for path in ("/v1/compress", "/v1/decompress", "/v1/inspect"):
            status, _, _ = call("POST", path)
            assert status == 400, path

    def test_non_tar_decompress_body_is_a_400_with_a_parse_error(self, call):
        status, _, body = call("POST", "/v1/decompress", b"certainly not a tar archive" * 40)
        assert status == 400
        assert b"container archive" in body

    @pytest.mark.parametrize("fixture", ["lossless_bz2", "lossy_bz2"])
    def test_truncated_golden_container_is_a_400(self, call, fixture):
        # Cut inside the first member's data (tar archives are padded to
        # 10 KiB records, so a half cut could remove only padding).
        packed = pack_container(GOLDEN / fixture)
        status, _, body = call("POST", "/v1/decompress", packed[:1000])
        assert status == 400, body

    @pytest.mark.parametrize("fixture", ["lossless_bz2", "lossy_gz"])
    def test_bit_flipped_golden_container_is_a_400(self, call, tmp_path, fixture):
        # Flip one bit inside a chunk payload: the archive still parses, but
        # the chunk fails its recorded digest — a 400 naming the damage, not
        # a 500 (and never a silently wrong decode).
        corrupt = tmp_path / fixture
        shutil.copytree(GOLDEN / fixture, corrupt)
        chunk = sorted(path for path in corrupt.iterdir() if not path.name.startswith("INFO"))[0]
        data = bytearray(chunk.read_bytes())
        data[len(data) // 2] ^= 0x40
        chunk.write_bytes(bytes(data))
        status, _, body = call("POST", "/v1/decompress", pack_container(corrupt))
        assert status == 400, body
        assert b"digest mismatch" in body

    def test_unknown_codec_parameters_are_400s(self, call):
        raw = b"\x00" * 16
        status, _, _ = call("POST", "/v1/compress?mode=z", raw)
        assert status == 400
        status, _, _ = call("POST", "/v1/compress?backend=nope", raw)
        assert status == 400
        status, _, _ = call("POST", "/v1/compress?interval_length=abc", raw)
        assert status == 400
        status, _, _ = call("POST", "/v1/compress?interval_length=-5", raw)
        assert status == 400

    def test_unknown_path_is_404_wrong_method_is_405(self, call):
        status, _, _ = call("POST", "/v1/nope", b"")
        assert status == 404
        status, headers, _ = call("GET", "/v1/compress")
        assert status == 405
        assert headers["Allow"] == "POST"
        status, headers, _ = call("POST", "/v1/metrics", b"")
        assert status == 405
        assert headers["Allow"] == "GET"


class TestHealthAndMetrics:
    def test_healthz_reports_liveness(self, call):
        status, _, body = call("GET", "/v1/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["draining"] is False

    def test_metrics_counters_move_with_traffic(self, call):
        _, _, before = call("GET", "/v1/metrics")
        before = json.loads(before)
        raw = make_trace(6_000, 55).tobytes()
        assert call("POST", "/v1/compress?mode=c", raw)[0] == 200
        assert call("POST", "/v1/compress?mode=c", raw)[0] == 200  # guaranteed hit
        _, _, after = call("GET", "/v1/metrics")
        after = json.loads(after)
        assert after["schema"] == METRICS_SCHEMA
        assert after["requests"]["total"] >= before["requests"]["total"] + 3
        assert after["cache"]["hits"] >= before["cache"]["hits"] + 1
        assert after["cache"]["hit_rate"] > 0
        assert after["bytes"]["in"] >= before["bytes"]["in"] + 2 * len(raw)
        assert after["bytes"]["out"] > before["bytes"]["out"]
        assert after["latency_seconds"]["count"] >= before["latency_seconds"]["count"] + 3
        assert after["latency_seconds"]["p95"] >= after["latency_seconds"]["p50"] >= 0
        assert after["requests"]["by_endpoint"]["compress"] >= 2
        assert after["requests"]["by_status"]["200"] >= 3


class TestWireFormat:
    def test_pack_is_deterministic_and_tar_readable(self, tmp_path):
        compress_stream([make_trace(5_000, 99)], tmp_path / "c", mode="c", config=LossyConfig())
        first = pack_container(tmp_path / "c")
        second = pack_container(tmp_path / "c")
        assert first == second
        with tarfile.open(fileobj=__import__("io").BytesIO(first)) as archive:
            names = archive.getnames()
        assert names == sorted(names)

    def test_unpack_round_trips_the_directory(self, tmp_path):
        compress_stream([make_trace(5_000, 99)], tmp_path / "c", mode="c", config=LossyConfig())
        packed = pack_container(tmp_path / "c")
        count = unpack_container(packed, tmp_path / "out")
        originals = sorted(path.name for path in (tmp_path / "c").iterdir())
        assert count == len(originals)
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == originals
        for name in originals:
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    def test_unpack_rejects_path_traversal_members(self, tmp_path):
        import io

        from repro.errors import ContainerError

        for evil in ("../escape", "/absolute", "nested/inner", ".hidden"):
            sink = io.BytesIO()
            with tarfile.open(fileobj=sink, mode="w") as archive:
                info = tarfile.TarInfo(name=evil)
                info.size = 4
                archive.addfile(info, io.BytesIO(b"data"))
            with pytest.raises(ContainerError, match="unsafe"):
                unpack_container(sink.getvalue(), tmp_path / f"out-{evil.replace('/', '_')}")

    def test_unpack_rejects_empty_archives_and_leaves_no_debris(self, tmp_path):
        import io

        from repro.errors import ContainerError

        sink = io.BytesIO()
        with tarfile.open(fileobj=sink, mode="w"):
            pass
        destination = tmp_path / "empty"
        with pytest.raises(ContainerError, match="no files"):
            unpack_container(sink.getvalue(), destination)
        assert not destination.exists()


class TestServerHygiene:
    def test_requests_leave_no_spool_debris(self, call):
        tmp = Path(tempfile.gettempdir())

        def spools():
            # Per-request spool directories only; cache roots live for the
            # whole server and stale debris from unrelated runs is not ours.
            return {
                path
                for path in tmp.glob("repro-serve-*")
                if not path.name.startswith("repro-serve-cache-")
            }

        before = spools()
        raw = make_trace(4_000, 31).tobytes()
        assert call("POST", "/v1/compress?mode=c&backend=store", raw)[0] == 200
        assert call("POST", "/v1/compress", b"bad")[0] == 400  # error paths clean up too
        # The response is written before the spool is removed, so allow the
        # server a moment to finish its per-request cleanup.
        deadline = time.monotonic() + 5.0
        while spools() != before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert spools() == before


class TestIntegrityEvictions:
    """Corrupt cached containers are evicted and re-encoded, never re-served."""

    def test_corrupt_cached_container_is_evicted_and_reencoded(self, tmp_path):
        from repro.testing.faults import flip_bit

        config = ServiceConfig(
            port=0,
            max_connections=8,
            workers=1,
            request_timeout=60.0,
            cache_dir=str(tmp_path / "cache"),
        )
        with BackgroundServer(config) as running:
            assert running.wait_ready(10.0)

            def call(method, path, body=None):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", running.port, timeout=30
                )
                try:
                    connection.request(method, path, body=body)
                    response = connection.getresponse()
                    return response.status, dict(response.getheaders()), response.read()
                finally:
                    connection.close()

            raw = make_trace(9_000, 321).tobytes()
            path = "/v1/compress?mode=c&backend=bz2"
            status, first_headers, first = call("POST", path, raw)
            assert status == 200 and first_headers["X-Atc-Cache"] == "miss"
            key = first_headers["X-Atc-Key"]

            # Bit-rot one chunk of the cached container behind the server's back.
            container_dir = tmp_path / "cache" / "containers" / key
            chunk = sorted(
                p for p in container_dir.iterdir() if not p.name.startswith("INFO.")
            )[0]
            flip_bit(chunk, 21)

            # The poisoned entry is a *miss* (evicted + re-encoded), and the
            # served bytes are identical to the pre-corruption response —
            # the corrupt copy was never re-served.
            status, second_headers, second = call("POST", path, raw)
            assert status == 200
            assert second_headers["X-Atc-Cache"] == "miss"
            assert second == first

            # The healed entry serves as a normal hit again.
            status, third_headers, third = call("POST", path, raw)
            assert status == 200
            assert third_headers["X-Atc-Cache"] == "hit"
            assert third == first

            _, _, metrics = call("GET", "/v1/metrics")
            metrics = json.loads(metrics)
            assert metrics["cache"]["integrity_evictions"] == 1
        assert running.exit_code == 0
