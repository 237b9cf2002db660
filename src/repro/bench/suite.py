"""The benchmark suite the ``repro bench`` runner executes programmatically.

Where ``benchmarks/`` holds the pytest-benchmark harness that regenerates
the paper's tables and figures, this module is the *operational* suite: a
small, fixed set of end-to-end measurements — trace generation + cache
filtering, lossless/lossy encode, decode — that the continuous-benchmarking
gate in CI runs on every push and compares against the committed
``benchmarks/baseline.json``.  Each case reports wall time, peak traced
memory and (for codec cases) payload bytes and bits per address, so the
gate catches both performance regressions and fidelity drift.

Determinism contract: for a fixed :class:`BenchScale` the synthetic
workload, the filtered trace and every container byte are identical on
every run, platform and worker count — wall time and memory are the only
quantities allowed to vary, which is what makes the bytes-per-address
comparison an exact drift detector.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import BenchmarkError

__all__ = [
    "BenchScale",
    "BenchResult",
    "SUITE_BENCHES",
    "SUITE_BENCHES_NAMES",
    "run_suite",
    "run_profile",
    "resolved_executor_name",
]


@dataclass(frozen=True)
class BenchScale:
    """The knobs that define one reproducible benchmark run.

    Attributes:
        references: Data references generated before cache filtering (the
            CI gate uses 30 000, the smallest scale at which every bench
            has real work).
        workload: Spec-like workload the suite measures.
        seed: Workload RNG seed.
        interval_length: Lossy interval length ``L`` (scaled down like the
            ``benchmarks/`` harness).
        buffer_addresses: Bytesort buffer / chunk size in addresses.
        backend: Byte-level compression back-end.
    """

    references: int = 30_000
    workload: str = "429.mcf"
    seed: int = 0
    interval_length: int = 5_000
    buffer_addresses: int = 4_000
    backend: str = "bz2"

    def to_dict(self) -> Dict:
        """Plain-data form stored in the report (and compared by the gate)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchScale":
        """Rebuild a scale from its report form, ignoring unknown keys."""
        known = {key: data[key] for key in cls.__dataclass_fields__ if key in data}
        return cls(**known)


@dataclass(frozen=True)
class BenchResult:
    """One executed benchmark case.

    Attributes:
        name: Case name (stable across runs; the comparison key).
        seconds: Wall-clock time of the measured section.
        addresses: Addresses processed by the case.
        payload_bytes: Compressed size, for codec cases (``None`` otherwise).
        bits_per_address: Compressed bits per input address (``None`` for
            non-codec cases); exact for a fixed scale, so any change is
            format/fidelity drift.
        peak_memory_bytes: Peak traced allocation during the case
            (:mod:`tracemalloc`, parent process).
        addresses_per_second: Throughput (``addresses / seconds``).
    """

    name: str
    seconds: float
    addresses: int
    payload_bytes: Optional[int]
    bits_per_address: Optional[float]
    peak_memory_bytes: int
    addresses_per_second: float

    def to_dict(self) -> Dict:
        """Plain-data form embedded in the report."""
        return asdict(self)


@dataclass
class _SuiteContext:
    """Mutable state threaded through the suite's cases, in order."""

    scale: BenchScale
    workers: int
    root: Path
    stream: Optional[object] = None
    trace: Optional[np.ndarray] = None
    containers: Dict[str, Path] = field(default_factory=dict)

    def config(self):
        from repro.core.lossy import LossyConfig

        return LossyConfig(
            interval_length=self.scale.interval_length,
            chunk_buffer_addresses=self.scale.buffer_addresses,
            backend=self.scale.backend,
            workers=self.workers,
        )

    def require_trace(self) -> np.ndarray:
        if self.trace is None:
            raise BenchmarkError("benchmark ordering bug: the 'filter' case must run first")
        return self.trace

    def require_stream(self):
        if self.stream is None:
            raise BenchmarkError("benchmark ordering bug: the 'filter' case must run first")
        return self.stream


def _bench_filter(ctx: _SuiteContext) -> Tuple[int, Optional[int], Optional[float]]:
    from repro.traces.filter import filter_reference_stream
    from repro.traces.spec_like import generate_reference_stream

    stream = generate_reference_stream(
        ctx.scale.workload, ctx.scale.references, seed=ctx.scale.seed
    )
    ctx.stream = stream
    trace = filter_reference_stream(stream).trace
    ctx.trace = trace.addresses
    return int(trace.addresses.size), None, None


def _bench_filter_assoc(ctx: _SuiteContext) -> Tuple[int, Optional[int], Optional[float]]:
    """Pure-filtering case: the paper's stream through an 8-way L1 pair.

    Unlike ``filter`` (whose wall time includes generating the synthetic
    stream), this measures only the cache simulation, which is what the
    set-parallel kernel accelerates — the gate's guard on the kernel's
    associative fast path.
    """
    from repro.cache.cache import CacheConfig
    from repro.traces.filter import CacheFilter

    config = CacheConfig.from_capacity(64 * 1024, associativity=8, name="L1-8way")
    cache_filter = CacheFilter(config, config)
    result = cache_filter.filter(ctx.require_stream())
    return int(result.trace.addresses.size), None, None


def _bench_stackdist_curve(ctx: _SuiteContext) -> Tuple[int, Optional[int], Optional[float]]:
    """Miss-ratio-curve case: one stack-distance pass over the trace.

    Simulates the cache-filtered trace through the single-pass Mattson
    simulator (128 sets, associativities 1..32 — one Figure 3 column),
    gating the kernel's stack-distance path.
    """
    from repro.cache.stackdist import simulate_miss_curve

    trace = ctx.require_trace()
    curve = simulate_miss_curve(trace, num_sets=128, max_associativity=32)
    if curve.accesses != int(trace.size):
        raise BenchmarkError("stack-distance pass lost references")
    return int(trace.size), None, None


def _bench_encode(ctx: _SuiteContext, mode: str, label: str):
    from repro.core.atc import compress_trace

    directory = ctx.root / label
    decoder = compress_trace(ctx.require_trace(), directory, mode=mode, config=ctx.config())
    ctx.containers[label] = directory
    return int(ctx.require_trace().size), int(decoder.compressed_bytes()), float(decoder.bits_per_address())


def _bench_encode_lossless(ctx: _SuiteContext):
    return _bench_encode(ctx, "c", "lossless")


def _bench_encode_lossy(ctx: _SuiteContext):
    return _bench_encode(ctx, "k", "lossy")


def _bench_decode(ctx: _SuiteContext, label: str):
    from repro.core.atc import AtcDecoder

    directory = ctx.containers.get(label)
    if directory is None:
        raise BenchmarkError(f"benchmark ordering bug: encode_{label} must run before decode_{label}")
    decoder = AtcDecoder(directory, workers=ctx.workers)
    decoded = decoder.read_all()
    return int(decoded.size), int(decoder.compressed_bytes()), float(decoder.bits_per_address())


def _bench_decode_lossless(ctx: _SuiteContext):
    return _bench_decode(ctx, "lossless")


def _bench_decode_lossy(ctx: _SuiteContext):
    return _bench_decode(ctx, "lossy")


def _bench_export_k6(ctx: _SuiteContext):
    """Adapter case: export the lossless container as a k6 text trace.

    Gates the ``atc -> k6`` path of :mod:`repro.traces.formats` — decoder
    re-chunking, sidecar synthesis (the container has none) and the text
    writer — end to end, file to file.
    """
    from repro.traces.formats.convert import export_from_atc

    directory = ctx.containers.get("lossless")
    if directory is None:
        raise BenchmarkError("benchmark ordering bug: encode_lossless must run before export_k6")
    destination = ctx.root / "k6_export.trc.gz"
    summary = export_from_atc(directory, destination, format="k6")
    ctx.containers["k6_export"] = destination
    return int(summary["records"]), None, None


def _bench_convert_k6(ctx: _SuiteContext):
    """Adapter case: convert the exported k6 trace back into an ATC container.

    Gates the ``k6 -> atc`` path — gz-transparent text parsing, the
    command/cycle sidecar writer and the streaming encoder — the
    convert-throughput number the CI trajectory tracks.  Payload bytes
    include the sidecar, so sidecar-format drift shows up as a
    bits-per-address change.
    """
    from repro.core.atc import AtcDecoder
    from repro.traces.formats.convert import convert_to_atc

    source = ctx.containers.get("k6_export")
    if source is None:
        raise BenchmarkError("benchmark ordering bug: export_k6 must run before convert_k6")
    directory = ctx.root / "k6_roundtrip"
    summary = convert_to_atc(source, directory, format="k6", config=ctx.config())
    decoder = AtcDecoder(directory)
    return int(summary["addresses"]), int(decoder.compressed_bytes()), float(decoder.bits_per_address())


def _bench_sweep_sched(ctx: _SuiteContext):
    """Distributed-sweep scheduler case: lease/steal/merge over a small grid.

    Drives one distributed worker (lease claim + evaluate + release per
    cell) through a six-cell codec grid on the suite's filtered trace, then
    a second, fully-cached stealing pass and a merge — the pure scheduling
    half of :mod:`repro.experiments.distributed`.  Reported payload bytes
    sum over the grid, so scheduler bugs that change *what* is computed
    (or codec drift) move ``bits_per_address`` exactly, while lease/merge
    overhead lands in the gated wall time.
    """
    from repro.experiments import (
        DistributedSweepRunner,
        ResultStore,
        merge_sweep,
        sweep_spec_from_dict,
    )

    trace = ctx.require_trace()
    spec = sweep_spec_from_dict(
        {
            "name": "bench-sweep-sched",
            "workloads": [
                {
                    "name": ctx.scale.workload,
                    "references": ctx.scale.references,
                    "seed": ctx.scale.seed,
                }
            ],
            "codecs": [
                {"kind": "raw"},
                {"kind": "unshuffle"},
                {"kind": "raw", "backend": "zlib"},
                {"kind": "unshuffle", "backend": "zlib"},
                {"kind": "raw", "backend": "xz"},
                {"kind": "unshuffle", "backend": "xz"},
            ],
            "scale": {
                "small_buffer": ctx.scale.buffer_addresses,
                "interval_length": ctx.scale.interval_length,
            },
        }
    )
    cache_dir = ctx.root / "sweep-sched"
    # The suite's trace is the same (workload, seed, paper-default filter)
    # the spec would generate; sharing it keeps the case about scheduling
    # and codec work, not trace generation (already gated by 'filter').
    provider = lambda workload, filter_spec: trace  # noqa: E731
    first = DistributedSweepRunner(
        spec, cache_dir, shard="1/1", trace_provider=provider
    ).run_worker()
    if first.remaining:
        raise BenchmarkError("sweep_sched: worker left units unfinished")
    cached_pass = DistributedSweepRunner(
        spec, cache_dir, steal=True, trace_provider=provider
    ).run_worker()
    if cached_pass.evaluated:
        raise BenchmarkError("sweep_sched: fully-cached pass recomputed a unit")
    merged = merge_sweep(spec, ResultStore(cache_dir))
    if not merged.is_complete:
        raise BenchmarkError(f"sweep_sched: merge missing {len(merged.missing)} units")
    addresses = sum(row.addresses for row in merged.result.rows)
    payload_bytes = sum(row.payload_bytes for row in merged.result.rows)
    bits = (8.0 * payload_bytes / addresses) if addresses else 0.0
    return int(addresses), int(payload_bytes), float(bits)


def _bench_serve_roundtrip(ctx: _SuiteContext):
    """Service case: compress + cached re-compress + decompress over HTTP.

    Boots a :class:`~repro.service.BackgroundServer` on an ephemeral port,
    POSTs the suite's filtered trace to ``/v1/compress`` twice (the second
    must be a dedup-cache hit, verified through ``/v1/metrics``), round
    trips the served container through ``/v1/decompress`` and requires the
    decoded bytes to equal the input exactly.  The reported payload is the
    packed-container size, so the case gates HTTP/service overhead on wall
    time while its ``bits_per_address`` pins the wire format — tar framing
    drift is a fidelity failure, not just a slowdown.
    """
    import http.client
    import json as _json

    from repro.service import BackgroundServer, ServiceConfig

    trace = ctx.require_trace()
    raw = trace.tobytes()
    config = ServiceConfig(
        port=0,
        max_connections=4,
        workers=ctx.workers,
        request_timeout=600.0,
        cache_dir=None,  # fresh private cache: every repetition sees miss -> hit
    )

    def request(server, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    query = (
        f"/v1/compress?mode=c&backend={ctx.scale.backend}"
        f"&chunk_buffer_addresses={ctx.scale.buffer_addresses}"
    )
    with BackgroundServer(config) as server:
        status, headers, container = request(server, "POST", query, raw)
        if status != 200 or headers.get("X-Atc-Cache") != "miss":
            raise BenchmarkError(f"serve_roundtrip: first compress got {status} "
                                 f"(cache={headers.get('X-Atc-Cache')!r})")
        status, headers, cached = request(server, "POST", query, raw)
        if status != 200 or headers.get("X-Atc-Cache") != "hit" or cached != container:
            raise BenchmarkError("serve_roundtrip: repeated request missed the dedup cache")
        status, _, decoded = request(server, "POST", "/v1/decompress", container)
        if status != 200 or decoded != raw:
            raise BenchmarkError("serve_roundtrip: decompressed bytes differ from the input trace")
        _, _, metrics_body = request(server, "GET", "/v1/metrics")
        hit_rate = _json.loads(metrics_body)["cache"]["hit_rate"]
        if not hit_rate > 0:
            raise BenchmarkError("serve_roundtrip: metrics cache hit rate is 0 "
                                 "on the repeated-request phase")
    if server.exit_code != 0:
        raise BenchmarkError(f"serve_roundtrip: server drain exited {server.exit_code}")
    return int(trace.size), int(len(container)), float(8.0 * len(container) / trace.size)


#: The suite, in execution order (later cases consume earlier artefacts).
SUITE_BENCHES: Tuple[Tuple[str, Callable[[_SuiteContext], Tuple[int, Optional[int], Optional[float]]]], ...] = (
    ("filter", _bench_filter),
    ("filter_assoc", _bench_filter_assoc),
    ("stackdist_curve", _bench_stackdist_curve),
    ("encode_lossless", _bench_encode_lossless),
    ("encode_lossy", _bench_encode_lossy),
    ("decode_lossless", _bench_decode_lossless),
    ("decode_lossy", _bench_decode_lossy),
    ("export_k6", _bench_export_k6),
    ("convert_k6", _bench_convert_k6),
    ("sweep_sched", _bench_sweep_sched),
    ("serve_roundtrip", _bench_serve_roundtrip),
)

#: Stable case names, in execution order.
SUITE_BENCHES_NAMES: Tuple[str, ...] = tuple(name for name, _ in SUITE_BENCHES)


def resolved_executor_name(workers: int) -> str:
    """How ``workers`` runs: ``"serial"`` (inline) for one, ``"thread"`` (a thread pool) beyond.

    Example:
        >>> resolved_executor_name(1), resolved_executor_name(4)
        ('serial', 'thread')
    """
    from repro.core.parallel import resolve_workers

    return "serial" if resolve_workers(workers) <= 1 else "thread"


def run_suite(
    scale: BenchScale = BenchScale(),
    workers: int = 1,
    names=None,
    work_dir=None,
    repetitions: int = 3,
) -> List[BenchResult]:
    """Execute the suite and return one :class:`BenchResult` per case.

    Args:
        scale: The run's reproducible scale knobs.
        workers: Pool size for the parallel cases (threads beyond one).
        names: Optional subset of case names to run; dependencies must be
            included (``decode_*`` needs its ``encode_*``, everything needs
            ``filter``), which is validated by the ordering checks.
        work_dir: Directory for the run's containers; a temporary directory
            (removed afterwards) when omitted.
        repetitions: Timing passes per run; the reported wall time is the
            per-case minimum, which is far more stable against scheduler
            jitter than a single shot (the regression gate compares
            ratios, so stability matters more than averages).

    Example:
        >>> results = run_suite(BenchScale(references=2000))
        >>> [result.name for result in results][:2]
        ['filter', 'filter_assoc']
        >>> all(result.seconds > 0 for result in results)
        True
    """
    import tempfile

    from repro.core.parallel import resolve_workers

    selected = set(SUITE_BENCHES_NAMES if names is None else names)
    unknown = selected - set(SUITE_BENCHES_NAMES)
    if unknown:
        raise BenchmarkError(f"unknown benchmark case(s): {sorted(unknown)}")
    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-bench-")
        work_dir = cleanup.name
    try:
        count = resolve_workers(workers)
        if repetitions < 1:
            raise BenchmarkError(f"repetitions must be >= 1, got {repetitions}")
        # Timing passes run untraced (the gated seconds and the published
        # throughput must not include tracemalloc's per-allocation
        # overhead, which is substantial for the allocation-heavy
        # pure-Python cases) and repeatedly, keeping the per-case minimum;
        # the *memory* pass then re-runs once under tracemalloc in a fresh
        # directory.
        timed = _execute_cases(scale, count, selected, Path(work_dir) / "t0", False)
        for rep in range(1, repetitions):
            again = _execute_cases(
                scale, count, selected, Path(work_dir) / f"t{rep}", False
            )
            for name, measurement in again.items():
                if measurement[0] < timed[name][0]:
                    timed[name] = measurement
        traced = _execute_cases(scale, count, selected, Path(work_dir) / "m", True)
        results: List[BenchResult] = []
        for name, _ in SUITE_BENCHES:
            if name not in selected:
                continue
            seconds, addresses, payload_bytes, bits_per_address, _ = timed[name]
            peak = traced[name][4]
            results.append(
                BenchResult(
                    name=name,
                    seconds=float(seconds),
                    addresses=int(addresses),
                    payload_bytes=payload_bytes,
                    bits_per_address=bits_per_address,
                    peak_memory_bytes=int(peak),
                    addresses_per_second=float(addresses / seconds) if seconds > 0 else 0.0,
                )
            )
        return results
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def run_profile(
    scale: BenchScale = BenchScale(),
    workers: int = 1,
    names=None,
    work_dir=None,
    top: int = 15,
) -> Dict[str, str]:
    """Profile every selected case and return one hot-path table per case.

    Runs the suite once with each case under :mod:`cProfile` and formats
    the ``top`` functions by cumulative time, so a perf PR can locate a
    stage's hot paths straight from ``repro bench --profile`` instead of
    ad-hoc scripts.  Profiled wall times are *not* comparable to
    :func:`run_suite` numbers (profiling adds per-call overhead); use them
    for *where*, not *how fast*.

    Example:
        >>> tables = run_profile(BenchScale(references=2000), names=["filter"])
        >>> sorted(tables)
        ['filter']
        >>> "cumulative" in tables["filter"]
        True
    """
    import cProfile
    import io
    import pstats
    import tempfile

    from repro.core.parallel import resolve_workers

    selected = set(SUITE_BENCHES_NAMES if names is None else names)
    unknown = selected - set(SUITE_BENCHES_NAMES)
    if unknown:
        raise BenchmarkError(f"unknown benchmark case(s): {sorted(unknown)}")
    if top < 1:
        raise BenchmarkError(f"profile table length must be >= 1, got {top}")
    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-bench-profile-")
        work_dir = cleanup.name
    try:
        ctx = _SuiteContext(
            scale=scale,
            workers=resolve_workers(workers),
            root=Path(work_dir) / "profile",
        )
        tables: Dict[str, str] = {}
        for name, case in SUITE_BENCHES:
            if name not in selected:
                continue
            profiler = cProfile.Profile()
            profiler.enable()
            case(ctx)
            profiler.disable()
            sink = io.StringIO()
            stats = pstats.Stats(profiler, stream=sink)
            stats.sort_stats("cumulative").print_stats(top)
            tables[name] = sink.getvalue()
        return tables
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _execute_cases(
    scale: BenchScale,
    workers: int,
    selected,
    root: Path,
    trace_memory: bool,
) -> Dict[str, Tuple[float, int, Optional[int], Optional[float], int]]:
    """One pass over the selected cases; returns per-case measurements.

    With ``trace_memory`` the pass runs under :mod:`tracemalloc` and the
    peak is meaningful (wall time is not, and vice versa) — see
    :func:`run_suite` for why the two are measured in separate passes.
    """
    ctx = _SuiteContext(scale=scale, workers=workers, root=root)
    measurements: Dict[str, Tuple[float, int, Optional[int], Optional[float], int]] = {}
    for name, case in SUITE_BENCHES:
        if name not in selected:
            continue
        tracing_already = tracemalloc.is_tracing()
        if trace_memory:
            if tracing_already:
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
        started = time.perf_counter()
        addresses, payload_bytes, bits_per_address = case(ctx)
        seconds = time.perf_counter() - started
        peak = 0
        if trace_memory:
            _, peak = tracemalloc.get_traced_memory()
            if not tracing_already:
                tracemalloc.stop()
        measurements[name] = (seconds, int(addresses), payload_bytes, bits_per_address, int(peak))
    return measurements
