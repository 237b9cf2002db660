"""The ``serve_mixed`` workload: two closed-loop clients against ``repro serve``.

A separate ``repro serve`` process runs with its default flags (port 0 and
a private cache directory inside the run's work directory).  Each of
:data:`CLIENTS` client threads repeatedly takes the next job of a seeded
schedule, sends ``POST /v1/compress`` with the job's body and then
``POST /v1/decompress`` with the container it got back, and waits for each
reply before sending again (a closed loop).  Jobs alternate lossless and
lossy mode; bodies are slices of filtered zoo-mix traces (``mix1`` ..
``mix7``) generated in set-up, and half of the jobs
(:data:`REPEAT_SLOTS`) resend an earlier job's body so the dedup cache gets
hits.

This is the only workload through ``repro.service``: HTTP parsing and
spooling, the tar wire format, the dedup cache and queueing on the
one-worker codec executor.  The cache filter does no work here.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers
from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    HostClock,
    RunResult,
    Tally,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    require,
)

MIXES = tuple(f"mix{index}" for index in range(1, 8))
#: References generated per mix (the filtered traces are 35-70% of that).
MIX_REFS = {"full": 200_000, "tiny": 20_000}
#: Body sizes in addresses, drawn uniformly per fresh job.
BODY_ADDRESSES = {"full": (16_000, 48_000), "tiny": (2_000, 6_000)}
CLIENTS = 2
#: The loop runs in slices of this many seconds with a host-clock reading
#: between them (the clients pause for the reading).
SLICE_S = 5.0
#: Job slots (index mod 8) that resend an earlier body: half the jobs, so
#: dedup hits and decompresses make up the fastest three quarters of the
#: requests and the median falls inside them rather than on the edge of
#: the encode-miss latencies.
REPEAT_SLOTS = (4, 5, 6, 7)
#: Jobs whose containers feed ``bits_per_addr`` (fresh jobs below this index).
BITS_JOBS = 64
#: Lossy jobs whose decoded trace feeds the miss-ratio error.
MR_JOBS = 4
#: Jobs run by ``--trace 1``, once against a plain and once against a traced server.
TRACED_JOBS = {"full": 150, "tiny": 12}
STARTUP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


def make_pool(seed: int, scale: str) -> List[np.ndarray]:
    """The filtered zoo-mix traces request bodies are sliced from."""
    from repro.traces.filter import filter_reference_stream
    from repro.traces.spec_like import get_workload

    return [
        filter_reference_stream(
            get_workload(mix).reference_stream(MIX_REFS[scale], seed=seed * 1000 + index)
        ).trace.addresses
        for index, mix in enumerate(MIXES)
    ]


def job_spec(seed: int, index: int, pool: List[np.ndarray], scale: str) -> Tuple[int, int, int, str, bool]:
    """Job ``index`` of the schedule: (mix, offset, length, mode, is_repeat).

    Even jobs are lossless (``c``), odd jobs lossy (``k``).  Jobs in
    :data:`REPEAT_SLOTS` are repeats: they go back an even number of jobs,
    so they resend a body in the same mode.
    """
    rng = np.random.default_rng([seed, index])
    if index >= 8 and index % 8 in REPEAT_SLOTS:
        mix, offset, length, mode, _ = job_spec(seed, index - 2 * int(rng.integers(2, 5)), pool, scale)
        return mix, offset, length, mode, True
    low, high = BODY_ADDRESSES[scale]
    mix = int(rng.integers(len(pool)))
    length = int(rng.integers(low, high + 1))
    offset = int(rng.integers(0, pool[mix].size - length + 1))
    return mix, offset, length, "c" if index % 2 == 0 else "k", False


class Server:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, work_dir: Path, name: str, stats: Optional[Path] = None) -> None:
        self.cache_dir = work_dir / f"{name}-cache"
        self.log_path = work_dir / f"{name}.log"
        if stats is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, "-m", "perfbench.serve_traced", "--stats", str(stats)]
        command += ["--port", "0", "--cache-dir", str(self.cache_dir)]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(ROOT), stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start: {self.log_path.read_text(errors='replace')}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """One HTTP exchange; returns (status, headers, body, seconds)."""
        began = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return response.status, dict(response.getheaders()), data, time.perf_counter() - began

    def stop(self) -> None:
        """Graceful SIGTERM drain, then wait for the process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def container_bytes(tar: bytes) -> int:
    """Total size of the container files packed in a served tar."""
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        return sum(member.size for member in archive.getmembers() if member.isfile())


class Loop:
    """The closed-loop clients, their checks and their measurements."""

    def __init__(self, server: Server, pool: List[np.ndarray], seed: int, scale: str, tally: Tally) -> None:
        self.server = server
        self.pool = pool
        self.seed = seed
        self.scale = scale
        self.tally = tally
        self.latencies: Dict[str, List[float]] = {"miss": [], "hit": [], "decompress": []}
        self.compressed_addresses = 0
        self.decoded_bytes = 0
        self.bits_samples: Dict[int, Tuple[int, int]] = {}
        self.mr_samples: Dict[int, Tuple[np.ndarray, bytes]] = {}
        self.jobs_taken = 0
        self.raw_walls: List[float] = []
        self._lock = threading.Lock()

    def _take(self, limit: Optional[int], deadline: float) -> Optional[int]:
        with self._lock:
            done = self.jobs_taken >= limit if limit is not None else time.perf_counter() >= deadline
            if done:
                return None
            self.jobs_taken += 1
            return self.jobs_taken - 1

    def _job(self, index: int) -> None:
        mix, offset, length, mode, repeat = job_spec(self.seed, index, self.pool, self.scale)
        addresses = self.pool[mix][offset : offset + length]
        body = addresses.tobytes()
        compressed = decompressed = False
        with self.tally.operation(f"job {index} compress"):
            status, headers, tar, took = self.server.request("POST", f"/v1/compress?mode={mode}", body)
            require(status == 200, f"compress answered {status}: {tar[:200]!r}")
            cached = headers.get("X-Atc-Cache")
            require(cached in ("hit", "miss"), f"compress X-Atc-Cache is {cached!r}")
            with self._lock:
                self.latencies[cached].append(took)
                self.compressed_addresses += length
            compressed = True
        if not compressed:
            return
        with self.tally.operation(f"job {index} decompress"):
            status, headers, decoded, took = self.server.request("POST", "/v1/decompress", tar)
            require(status == 200, f"decompress answered {status}: {decoded[:200]!r}")
            with self._lock:
                self.latencies["decompress"].append(took)
                self.decoded_bytes += len(decoded)
            if mode == "c":
                require(decoded == body, "lossless round trip is not byte-identical")
            else:
                require(len(decoded) == len(body), f"lossy decode has {len(decoded)} of {len(body)} bytes")
            require(int(headers.get("X-Atc-Addresses", -1)) == length, "X-Atc-Addresses mismatch")
            decompressed = True
        if not decompressed or repeat:
            return
        with self._lock:
            if index < BITS_JOBS:
                self.bits_samples[index] = (container_bytes(tar), length)
            if mode == "k" and len(self.mr_samples) < MR_JOBS:
                self.mr_samples[index] = (addresses, decoded)

    def _client(self, limit: Optional[int], deadline: float) -> None:
        while True:
            index = self._take(limit, deadline)
            if index is None:
                return
            self._job(index)

    def run(self, seconds: float = 0.0, jobs: Optional[int] = None) -> float:
        """Run until ``seconds`` pass (or ``jobs`` jobs are done); returns the wall time."""
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=self._client, args=(jobs, deadline), name=f"client-{n}")
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.raw_walls.append(time.perf_counter() - start)
        return self.raw_walls[-1]

    @property
    def requests(self) -> List[float]:
        return self.latencies["miss"] + self.latencies["hit"] + self.latencies["decompress"]

    def bits_per_addr(self) -> float:
        total_bytes = sum(size for size, _ in self.bits_samples.values())
        total_addresses = sum(count for _, count in self.bits_samples.values())
        return 8.0 * total_bytes / total_addresses if total_addresses else 0.0

    def mr_err_max(self) -> float:
        from perfbench.online import miss_ratio_error

        return max(
            (
                miss_ratio_error(original, np.frombuffer(decoded, dtype="<u8"))
                for original, decoded in self.mr_samples.values()
            ),
            default=0.0,
        )


def setup(seed: int, scale: str, work_dir: Path):
    """Build the pool and boot a server, :data:`SETUP_REPEATS` times.

    Returns (pool, running server, median set-up seconds); the servers of
    the earlier repeats are stopped once timed.
    """
    durations = []
    pool = server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        pool = server = None
        began = time.perf_counter()
        pool = make_pool(seed, scale)
        server = Server(work_dir, f"serve-{repeat}")
        durations.append(time.perf_counter() - began)
    return pool, server, median(durations)


def run(seed: int, seconds: float, trace: bool, scale: str, work_dir: Path) -> RunResult:
    """Run ``serve_mixed``; returns its end-to-end or per-layer result.

    The loop's timings are host-scaled slice by slice with a two-thread
    :class:`~perfbench.common.HostClock`, since the clients and the server
    keep both cores busy; set-up is reported raw.
    """
    pool, server, setup_s = setup(seed, scale, work_dir)
    try:
        if trace:
            return _run_traced(pool, server, seed, scale, work_dir, setup_s)
        loop = Loop(server, pool, seed, scale, Tally())
        clock = HostClock(threads=CLIENTS)
        wall = 0.0
        while wall == 0.0 or sum(loop.raw_walls) < seconds:
            marks = {kind: len(values) for kind, values in loop.latencies.items()}
            slice_wall = loop.run(seconds=min(SLICE_S, seconds - sum(loop.raw_walls)))
            scale_factor = clock.factor()
            wall += slice_wall * scale_factor
            for kind, values in loop.latencies.items():
                values[marks[kind]:] = [latency * scale_factor for latency in values[marks[kind]:]]
        server_rss = server.peak_rss_mb()
    finally:
        server.stop()
    requests = loop.requests
    metrics = {
        "setup_s": (setup_s, "s"),
        "ingest_mref_s": (loop.compressed_addresses / wall / 1e6, "Mref/s"),
        "decode_mb_s": (loop.decoded_bytes / wall / 1e6, "MB/s"),
        "bits_per_addr": (loop.bits_per_addr(), "bits/addr"),
        "peak_rss_mb": (server_rss, "MB"),
        "req_per_s": (len(requests) / wall, "req/s"),
        "req_p50_ms": (1e3 * percentile(requests, 50), "ms"),
        "req_p90_ms": (1e3 * percentile(requests, 90), "ms"),
    }
    notes = {
        "jobs": loop.jobs_taken,
        "requests": len(requests),
        "beyond_p90": sum(1 for value in requests if value > percentile(requests, 90)),
        "cache_hits": len(loop.latencies["hit"]),
        "mr_err_max": loop.mr_err_max(),
        "host_factor_median": median(clock.factors),
    }
    return RunResult(loop.tally, metrics, notes)


def _run_traced(pool, server, seed, scale, work_dir, setup_s) -> RunResult:
    jobs = TRACED_JOBS[scale]
    tally = Tally()
    untraced_wall = Loop(server, pool, seed, scale, tally).run(jobs=jobs)
    server.stop()
    stats_path = work_dir / "serve-traced-stats.json"
    traced_server = Server(work_dir, "serve-traced", stats=stats_path)
    try:
        loop = Loop(traced_server, pool, seed, scale, tally)
        wall = loop.run(jobs=jobs)
        status, _, body, _ = traced_server.request("GET", "/v1/metrics")
        snapshot = json.loads(body) if status == 200 else {}
    finally:
        traced_server.stop()
    tracer = layers.Tracer()
    if stats_path.exists():
        tracer.merge(json.loads(stats_path.read_text()))
    values = dict.fromkeys(layers.LAYER_METRICS, 0.0)
    values.update(layers.layer_metrics(tracer))
    requests = snapshot.get("requests", {})
    cache = snapshot.get("cache", {})
    server_p50_ms = 1e3 * snapshot.get("latency_seconds", {}).get("p50", 0.0)
    client_latency = loop.requests
    values.update(
        {
            "lossy.mr_err_max": loop.mr_err_max(),
            "service.server_p50_ms": server_p50_ms,
            "service.cache_hit_ratio": cache.get("hit_rate", 0.0),
            "service.bytes_in": snapshot.get("bytes", {}).get("in", 0.0),
            "service.bytes_out": snapshot.get("bytes", {}).get("out", 0.0),
            "service.rejected": requests.get("rejected", 0.0),
            "service.timeouts": requests.get("timeouts", 0.0),
            "serve.compress_miss_p50_ms": 1e3 * median(loop.latencies["miss"]),
            "serve.compress_hit_p50_ms": 1e3 * median(loop.latencies["hit"]),
            "serve.decompress_p50_ms": 1e3 * median(loop.latencies["decompress"]),
            "serve.transport_ms": 1e3 * median(client_latency) - server_p50_ms,
            "trace.wall_s": wall,
            "trace.unaccounted_frac": 1.0 - tracer.accounted / sum(client_latency) if client_latency else 0.0,
            "trace.overhead_frac": wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        }
    )
    metrics = {name: (values[name], unit) for name, unit in layers.LAYER_METRICS.items()}
    notes = {"setup_s": setup_s, "jobs": jobs, "untraced_s": untraced_wall}
    return RunResult(tally, metrics, notes)
