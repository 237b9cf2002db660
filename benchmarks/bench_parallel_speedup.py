"""Serial vs parallel ATC encode throughput on a synthetic 1 M-address trace.

The paper gets its single-pass speed by overlapping compression with trace
generation (an external ``bzip2 -c`` process on another core); this bench
records how well the in-process reproduction of that overlap — the chunk
pipeline on a thread pool — scales on the machine the harness runs on.
Two benchmarks compress the *same* trace with the same configuration, once
with ``workers=1`` (fully serial) and once with ``workers=4`` (threads);
the ratio of the two medians is the pipeline speedup, and the containers
are asserted byte-identical (the pipeline's hard invariant).

On a single-core runner the two times are expected to be equal; the
speedup materialises with the hardware.  Throughput is recorded as
addresses/second in the ``extra_info`` of the JSON payload so the perf
trajectory (BENCH_*.json) captures the win.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.atc import MODE_LOSSLESS, compress_trace
from repro.core.lossy import LossyConfig

#: Addresses in the synthetic trace (the acceptance scenario's 1 M).
TRACE_ADDRESSES = 1_000_000

#: Bytesort buffer / chunk size: 8 chunks of 125 k addresses each, enough
#: chunk-level parallelism for a 4-worker pool to stay busy.
CHUNK_ADDRESSES = 125_000

PARALLEL_WORKERS = 4


@pytest.fixture(scope="module")
def speedup_trace() -> np.ndarray:
    """A phased synthetic trace of 1 M addresses (mixed compressibility)."""
    rng = np.random.default_rng(2009)
    pieces = []
    for phase in range(8):
        base = (phase % 4) * 0x0800_0000
        if phase % 2 == 0:
            start = base + phase * 64
            pieces.append(np.arange(start, start + TRACE_ADDRESSES // 8, dtype=np.uint64))
        else:
            pieces.append(
                rng.integers(base, base + (1 << 22), size=TRACE_ADDRESSES // 8, dtype=np.uint64)
            )
    return np.concatenate(pieces)


def _container_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for entry in sorted(directory.iterdir()):
        digest.update(entry.name.encode())
        digest.update(entry.read_bytes())
    return digest.hexdigest()


def _encode(trace: np.ndarray, directory: Path, workers: int) -> Path:
    config = LossyConfig(chunk_buffer_addresses=CHUNK_ADDRESSES, backend="bz2", workers=workers)
    compress_trace(trace, directory, mode=MODE_LOSSLESS, config=config)
    return directory


def _bench_encode(benchmark, tmp_path_factory, trace, workers, label):
    counter = iter(range(1_000_000))

    def run():
        directory = tmp_path_factory.mktemp(f"{label}-{next(counter)}") / "container"
        return _encode(trace, directory, workers)

    directory = benchmark(run)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["executor"] = "serial" if workers == 1 else "thread"
    benchmark.extra_info["trace_addresses"] = int(trace.size)
    benchmark.extra_info["addresses_per_second"] = trace.size / benchmark.stats.stats.median
    return _container_digest(directory)


def test_encode_serial_1m(benchmark, tmp_path_factory, speedup_trace):
    """Baseline: 1 M addresses, bz2 chunks, one worker."""
    digest = _bench_encode(benchmark, tmp_path_factory, speedup_trace, 1, "serial")
    benchmark.extra_info["container_sha256"] = digest


def test_encode_parallel_1m(benchmark, tmp_path_factory, speedup_trace):
    """Pipeline: same trace, four worker threads; container must be byte-identical."""
    digest = _bench_encode(benchmark, tmp_path_factory, speedup_trace, PARALLEL_WORKERS, "parallel")
    benchmark.extra_info["container_sha256"] = digest
    serial_dir = tmp_path_factory.mktemp("serial-ref") / "container"
    _encode(speedup_trace, serial_dir, workers=1)
    assert digest == _container_digest(serial_dir), (
        "parallel container must be byte-identical to the serial one"
    )

