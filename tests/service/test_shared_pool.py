"""The service's jobs on the process-wide thread pool under concurrent requests.

With ``workers > 1`` every compress/decompress job of the service fans its
chunks out on the one thread pool of :mod:`repro.core.parallel`.
Concurrent lossless and lossy requests must come back byte-identical to a
``workers=1`` server, chunk loads must run on pool threads only when
``workers > 1``, and the server must leave no thread of its own behind.
"""

from __future__ import annotations

import http.client
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import parallel
from repro.core.atc import AtcDecoder
from repro.service import BackgroundServer, ServiceConfig

#: Small chunk and interval sizes so every request spans several chunks.
PARAMS = "backend=zlib&interval_length=4000&chunk_buffer_addresses=4000"


@pytest.fixture
def chunk_loads(monkeypatch):
    """Report two usable CPUs, and record for every chunk load whether it
    ran on a process-pool thread."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    on_pool = []
    load = AtcDecoder._load_chunk

    def recording_load(decoder, chunk_id):
        on_pool.append(threading.current_thread().name.startswith(parallel.POOL_THREAD_PREFIX))
        return load(decoder, chunk_id)

    monkeypatch.setattr(AtcDecoder, "_load_chunk", recording_load)
    return on_pool


def _traces():
    rng = np.random.default_rng(7)
    traces = []
    for index in range(4):
        phases = [
            rng.integers(base, base + 3_000, size=6_000, dtype=np.uint64)
            for base in ((index + phase % 3) * 0x10_0000 for phase in range(5))
        ]
        traces.append(np.concatenate(phases).tobytes())
    return traces


def _post(port, path, body):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _serve_all(workers, cache_dir, traces):
    """Compress every trace in both modes, then decompress every container,
    each batch as concurrent requests; returns containers and decoded bytes."""
    config = ServiceConfig(
        port=0, max_connections=8, workers=workers, request_timeout=60.0, cache_dir=str(cache_dir)
    )
    jobs = [(mode, raw) for raw in traces for mode in ("c", "k")]
    with BackgroundServer(config) as running:
        with ThreadPoolExecutor(len(jobs)) as clients:
            compressed = list(
                clients.map(
                    lambda job: _post(running.port, f"/v1/compress?mode={job[0]}&{PARAMS}", job[1]),
                    jobs,
                )
            )
            assert all(status == 200 for status, _ in compressed)
            containers = [body for _, body in compressed]
            decompressed = list(
                clients.map(lambda body: _post(running.port, "/v1/decompress", body), containers)
            )
        assert all(status == 200 for status, _ in decompressed)
    assert running.exit_code == 0
    return jobs, containers, [body for _, body in decompressed]


def test_concurrent_requests_on_the_shared_pool_match_one_worker(tmp_path, chunk_loads):
    traces = _traces()
    before = set(threading.enumerate())
    jobs, inline_containers, inline_decoded = _serve_all(1, tmp_path / "one", traces)
    assert chunk_loads and not any(chunk_loads)  # one worker: every load inline
    chunk_loads.clear()
    _, pooled_containers, pooled_decoded = _serve_all(2, tmp_path / "two", traces)
    assert any(chunk_loads)  # two workers: loads run on the process pool
    assert pooled_containers == inline_containers
    assert pooled_decoded == inline_decoded
    for (mode, raw), decoded in zip(jobs, pooled_decoded):
        if mode == "c":
            assert decoded == raw
        else:
            assert len(decoded) == len(raw)
    left = set(threading.enumerate()) - before
    assert all(thread.name.startswith(parallel.POOL_THREAD_PREFIX) for thread in left)
