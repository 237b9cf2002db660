"""The two online workloads: a tracer feeding the codec chunk by chunk.

``online_lossless``
    The reference streams of ``429.mcf`` (pointer chasing) and ``403.gcc``
    (phase-churning heap) pass through ``StreamingCacheFilter.filter_chunk``
    into a lossless ``AtcEncoder``; each container is then decoded in bulk
    with ``AtcDecoder.read_all`` and compared byte for byte with the
    filter's output.  High-entropy misses make bz2 and bytesort dominate,
    so back-end, bytesort, digest, container and bulk-decode changes show
    here.  Every source's filtered trace exceeds the default 1M-address
    bytesort buffer, so per-chunk work runs more than once per container.

``online_lossy``
    ``433.milc`` (unit-stride sweeps) and ``410.bwaves`` (four-array
    streaming) through the same path in lossy mode; each container is then
    replayed :data:`REPLAYS` times through ``AtcDecoder.iter_chunks``, as
    one trace is replayed by several simulations.  Stable phases make most
    intervals imitations: the L1 filter and histogram classification
    dominate ingest, and decode runs the chunk LRU plus
    ``materialize_interval`` instead of bulk decompression.

A *request* of these workloads is one call a user blocks on: a tracer
handing one chunk of :data:`HANDOFF_REFS` references to filter + encoder
(``close()`` is the last one), or a simulator opening a container / pulling
one decoded chunk.  Everything runs with the library defaults: serial
executor, ``workers=1``, bz2, ``LossyConfig()`` and v2 containers.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from perfbench import layers
from perfbench.common import (
    HostClock,
    RunResult,
    Tally,
    median,
    peak_rss_mb,
    percentile,
    require,
    reset_peak_rss,
    timed_setup,
)

LOSSLESS_SOURCES = ("429.mcf", "403.gcc")
LOSSY_SOURCES = ("433.milc", "410.bwaves")

#: Data references generated per source (the stream also holds as many
#: instruction fetches); the filtered mcf/gcc traces are ~1.1M addresses.
REFERENCES = {"full": 1_100_000, "tiny": 30_000}

#: References per tracer handoff (the library's default stream chunk).
HANDOFF_REFS = 65_536

#: Decodes of each lossy container per iteration.
REPLAYS = 8

#: Iterations run untraced and then traced by ``--trace 1``: fixed work, so
#: per-layer busy times compare across commits.
TRACED_ITERATIONS = {"online_lossless": 1, "online_lossy": 3}

#: Pointer-cycle candidates tried for the mcf analogue (see below).
MCF_CANDIDATES = 4
MCF_NODES = 200_000


def _cycle_length(seed: int, nodes: int) -> int:
    """Length of the pointer cycle through node 0 of ``pointer_chase(seed)``."""
    successor = np.random.default_rng(seed).permutation(nodes)
    node, length = int(successor[0]), 1
    while node != 0:
        node = int(successor[node])
        length += 1
    return length


def generator_seed(name: str, seed: int) -> int:
    """The workload-generator seed used for ``name`` under benchmark ``seed``.

    The mcf analogue chases a random permutation of 200k nodes from node 0,
    and the cycle it lands on has a uniformly random length, which swings
    its lossless bits per address by 3x between seeds.  Of
    :data:`MCF_CANDIDATES` seeds derived from ``seed`` the one with the
    longest cycle is used, so every seed gives a trace of the same
    character (a chase that rarely repeats within a bz2 block).
    """
    base = seed * 1000
    if name != "429.mcf":
        return base
    candidates = [base + offset for offset in range(MCF_CANDIDATES)]
    return max(candidates, key=lambda candidate: _cycle_length(candidate, MCF_NODES))


def make_sources(names, refs: int, seed: int) -> Dict:
    """Generate each source's instruction + data reference stream."""
    from repro.traces.spec_like import get_workload

    return {
        name: get_workload(name).reference_stream(refs, seed=generator_seed(name, seed))
        for name in names
    }


def ingest(stream, directory: Path, mode: str, requests: List[float]) -> Tuple[np.ndarray, float]:
    """Feed ``stream`` through the filter into an encoder, one handoff at a time.

    Returns the filtered trace (for the output check) and the ingest wall
    time; each handoff's latency is appended to ``requests``.
    """
    from repro.core.atc import AtcEncoder
    from repro.traces.filter import StreamingCacheFilter

    misses = []
    start = time.perf_counter()
    streaming_filter = StreamingCacheFilter()
    with AtcEncoder(directory, mode=mode) as encoder:
        for chunk in stream.iter_chunks(HANDOFF_REFS):
            began = time.perf_counter()
            miss = streaming_filter.filter_chunk(chunk)
            encoder.code_many(miss)
            requests.append(time.perf_counter() - began)
            misses.append(miss)
        began = time.perf_counter()
        encoder.close()
        requests.append(time.perf_counter() - began)
    elapsed = time.perf_counter() - start
    return np.concatenate(misses), elapsed


def decode_bulk(directory: Path, requests: List[float]) -> Tuple[np.ndarray, float]:
    """Open + ``read_all`` (one request); returns the trace and its time."""
    from repro.core.atc import AtcDecoder

    began = time.perf_counter()
    values = AtcDecoder(directory).read_all()
    elapsed = time.perf_counter() - began
    requests.append(elapsed)
    return values, elapsed


def decode_replay(directory: Path, requests: List[float], keep: bool = False):
    """Replay through ``iter_chunks``; returns (count, sha256, trace or None, time).

    Opening the container is one request and every chunk pull another;
    hashing the chunks (for the replay-identity check) is not timed.
    """
    from repro.core.atc import AtcDecoder

    digest = hashlib.sha256()
    pieces = [] if keep else None
    count = 0
    began = time.perf_counter()
    chunks = AtcDecoder(directory).iter_chunks()
    elapsed = time.perf_counter() - began
    requests.append(elapsed)
    while True:
        began = time.perf_counter()
        chunk = next(chunks, None)
        took = time.perf_counter() - began
        elapsed += took
        if chunk is None:
            break
        requests.append(took)
        count += int(chunk.size)
        digest.update(chunk.tobytes())
        if keep:
            pieces.append(chunk)
    trace = np.concatenate(pieces) if keep and pieces else None
    return count, digest.hexdigest(), trace, elapsed


def miss_ratio_error(original: np.ndarray, decoded: np.ndarray) -> float:
    """Max |miss-ratio difference| over 128 sets, associativity 1..32."""
    from repro.cache.stackdist import simulate_miss_curve

    reference = simulate_miss_curve(original, 128, 32)
    approximate = simulate_miss_curve(decoded, 128, 32)
    return max(
        abs(reference.miss_ratio(assoc) - approximate.miss_ratio(assoc)) for assoc in range(1, 33)
    )


class OnlineWorkload:
    """One online workload run: set-up, timed iterations, checks, metrics."""

    def __init__(self, name: str, seed: int, scale: str, work_dir: Path) -> None:
        self.name = name
        self.lossy = name == "online_lossy"
        self.mode = "k" if self.lossy else "c"
        self.sources = LOSSY_SOURCES if self.lossy else LOSSLESS_SOURCES
        self.seed = seed
        self.refs = REFERENCES[scale]
        self.work_dir = work_dir
        self.tally = Tally()
        self.requests: List[float] = []
        # Sums over complete iterations: raw refs, ingest s, decoded bytes, decode s.
        self.totals = [0.0, 0.0, 0.0, 0.0]
        self.iterations = 0
        self.bits: Tuple[int, int] = (0, 0)  # container bytes, filtered addresses
        self.mr_err = 0.0
        self._mr_measured = set()
        self.wrappers_seen = False
        self.clock = HostClock()

    def setup(self) -> float:
        """Generate the sources; returns the host-scaled median set-up seconds."""
        self.streams, seconds = timed_setup(lambda: make_sources(self.sources, self.refs, self.seed))
        return seconds * self.clock.factor()

    def iteration(self) -> Tuple[float, float]:
        """Round-trip every source once; returns the timed seconds, raw and host-scaled.

        The host clock is read after each source, so every source's timings
        are scaled by the host speed around that source's own round trip.
        """
        self.wrappers_seen |= layers.installed()
        self.iterations += 1
        raw_s = 0.0
        rounds = []
        for source, stream in self.streams.items():
            first_request = len(self.requests)
            sums = self._round_trip(source, stream)
            scale = self.clock.factor()
            self.requests[first_request:] = [t * scale for t in self.requests[first_request:]]
            if sums is not None:
                raw_s += sums[1] + sums[3]
                sums[1] *= scale
                sums[3] *= scale
            rounds.append(sums)
        done = [sums for sums in rounds if sums is not None]
        sums = [sum(column) for column in zip(*done)] if done else [0] * 6
        refs, ingest_s, decoded, decode_s, container_bytes, filtered = sums
        if len(done) == len(rounds):
            for index, value in enumerate((refs, ingest_s, decoded, decode_s)):
                self.totals[index] += value
            self.bits = (container_bytes, filtered)
        return raw_s, ingest_s + decode_s

    def _round_trip(self, source: str, stream):
        """Ingest then decode one source; None when the ingest itself failed.

        Returns (raw refs, ingest s, decoded bytes, decode s, container
        bytes, filtered addresses).
        """
        directory = self.work_dir / f"{self.name}-{self.iterations}-{source}"
        sums = None
        with self.tally.operation(f"{source} ingest"):
            original, ingest_s = ingest(stream, directory, self.mode, self.requests)
            size = sum(entry.stat().st_size for entry in directory.iterdir())
            sums = [len(stream), ingest_s, 0, 0.0, size, int(original.size)]
        if sums is not None:
            decode = self._replays if self.lossy else self._bulk_decode
            sums[2], sums[3] = decode(source, directory, original)
        shutil.rmtree(directory, ignore_errors=True)
        return sums

    def _bulk_decode(self, source, directory, original):
        with self.tally.operation(f"{source} bulk decode"):
            values, took = decode_bulk(directory, self.requests)
            require(
                values.dtype == original.dtype and np.array_equal(values, original),
                f"{source}: decoded trace differs from the filtered trace",
            )
            return values.nbytes, took
        return 0, 0.0

    def _replays(self, source, directory, original):
        decoded_bytes, decode_s, first = 0, 0.0, None
        for replay in range(REPLAYS):
            keep = replay == 0 and source not in self._mr_measured
            with self.tally.operation(f"{source} replay {replay}"):
                count, digest, trace, took = decode_replay(directory, self.requests, keep=keep)
                decoded_bytes += 8 * count
                decode_s += took
                require(count == original.size, f"{source}: replay decoded {count} of {original.size}")
                first = first or digest
                require(digest == first, f"{source}: replay {replay} differs from replay 0")
                if keep:
                    self.mr_err = max(self.mr_err, miss_ratio_error(original, trace))
                    self._mr_measured.add(source)
        return decoded_bytes, decode_s


def run(name: str, seed: int, seconds: float, trace: bool, scale: str, work_dir: Path) -> RunResult:
    """Run an online workload; returns its end-to-end or per-layer result."""
    workload = OnlineWorkload(name, seed, scale, work_dir)
    setup_s = workload.setup()
    if trace:
        return _run_traced(workload, setup_s)
    reset_peak_rss()
    start = time.perf_counter()
    while True:
        workload.iteration()
        if time.perf_counter() - start >= seconds:
            break
    requests = workload.requests
    request_s = sum(requests)
    container_bytes, filtered = workload.bits
    refs, ingest_s, decoded_bytes, decode_s = workload.totals
    metrics = {
        "setup_s": (setup_s, "s"),
        "ingest_mref_s": (refs / ingest_s / 1e6 if ingest_s else 0.0, "Mref/s"),
        "decode_mb_s": (decoded_bytes / decode_s / 1e6 if decode_s else 0.0, "MB/s"),
        "bits_per_addr": (8.0 * container_bytes / filtered if filtered else 0.0, "bits/addr"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "req_per_s": (len(requests) / request_s if request_s else 0.0, "req/s"),
        "req_p50_ms": (1e3 * percentile(requests, 50), "ms"),
        "req_p90_ms": (1e3 * percentile(requests, 90), "ms"),
    }
    notes = {
        "iterations": workload.iterations,
        "requests": len(requests),
        "mr_err_max": workload.mr_err,
        "host_factor_median": median(workload.clock.factors),
        "wrappers_seen": workload.wrappers_seen,
    }
    return RunResult(workload.tally, metrics, notes)


def _run_traced(workload: OnlineWorkload, setup_s: float) -> RunResult:
    iterations = TRACED_ITERATIONS[workload.name]
    workload.iteration()  # warm-up: first-touch costs would count against the untraced side
    untraced = [workload.iteration() for _ in range(iterations)]
    tracer = layers.Tracer()
    with layers.traced(tracer):
        traced = [workload.iteration() for _ in range(iterations)]
    traced_s = sum(raw for raw, _ in traced)
    traced_scaled, untraced_scaled = (sum(scaled for _, scaled in side) for side in (traced, untraced))
    values = dict.fromkeys(layers.LAYER_METRICS, 0.0)
    values.update(layers.layer_metrics(tracer))
    values["lossy.mr_err_max"] = workload.mr_err
    values["trace.wall_s"] = traced_s
    values["trace.unaccounted_frac"] = 1.0 - tracer.accounted / traced_s if traced_s else 0.0
    values["trace.overhead_frac"] = traced_scaled / untraced_scaled - 1.0 if untraced_scaled else 0.0
    metrics = {name: (values[name], unit) for name, unit in layers.LAYER_METRICS.items()}
    notes = {"setup_s": setup_s, "iterations": iterations, "untraced_s": sum(raw for raw, _ in untraced)}
    return RunResult(workload.tally, metrics, notes)
