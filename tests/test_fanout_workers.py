"""Every library fan-out site returns the serial result at any worker count.

The worker count alone picks the strategy — inline for one worker, a
thread pool beyond — so each site that accepts ``workers`` is run once
serially and again on threads, and the two outputs must be identical:
batch filtering, the miss-ratio sweep, and the trace-format conversion
in both directions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cache.sweep import miss_ratio_sweep
from repro.core.lossy import LossyConfig
from repro.traces.filter import (
    filter_reference_stream,
    filter_reference_streams,
    filter_spec_like_traces,
    filtered_spec_like_trace,
)
from repro.traces.formats import TraceRecords, convert_to_atc, export_from_atc, write_k6_records
from repro.traces.spec_like import generate_reference_stream

WORKLOADS = ("429.mcf", "462.libquantum", "433.milc")

THREAD_WORKERS = pytest.mark.parametrize("workers", [2, 4])


def _blocks(seed: int, count: int = 6_000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2_048, size=count, dtype=np.uint64)


def _k6_records(count: int = 3_000) -> TraceRecords:
    k = np.arange(count, dtype=np.uint64)
    phase = k // np.uint64(1_000)
    scrambled = ((k + np.uint64(1)) * np.uint64(2654435761)) % np.uint64(4096)
    addresses = np.uint64(0x40_0000) + phase * np.uint64(0x1_0000) + scrambled * np.uint64(64)
    kinds = (k % np.uint64(3)).astype(np.uint8)
    cycles = (np.uint64(100) + np.uint64(2) * k).astype(np.uint64)
    return TraceRecords(addresses, kinds, cycles)


def _config(workers: int) -> LossyConfig:
    return LossyConfig(
        interval_length=500, chunk_buffer_addresses=500, backend="zlib", workers=workers
    )


def _files(directory: Path) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(directory.iterdir())}


@THREAD_WORKERS
def test_filter_reference_streams_matches_serial(workers):
    streams = [generate_reference_stream(name, 2_000, seed=0) for name in WORKLOADS]
    threaded = filter_reference_streams(streams, workers=workers)
    assert len(threaded) == len(streams)
    for stream, result in zip(streams, threaded):
        expected = filter_reference_stream(stream)
        assert np.array_equal(result.trace.addresses, expected.trace.addresses)
        assert result.instruction_stats == expected.instruction_stats
        assert result.data_stats == expected.data_stats


@THREAD_WORKERS
def test_filter_spec_like_traces_matches_serial(workers):
    threaded = filter_spec_like_traces(WORKLOADS, 2_000, seed=3, workers=workers)
    assert list(threaded) == list(WORKLOADS)
    for name, trace in threaded.items():
        expected = filtered_spec_like_trace(name, 2_000, seed=3)
        assert np.array_equal(trace.addresses, expected.addresses)


@THREAD_WORKERS
def test_miss_ratio_sweep_matches_serial(workers):
    blocks = _blocks(9)
    set_counts = [8, 16, 32, 64]
    serial = miss_ratio_sweep(blocks, set_counts, max_associativity=8, workers=1)
    threaded = miss_ratio_sweep(blocks, set_counts, max_associativity=8, workers=workers)
    assert threaded == serial
    assert threaded.set_counts == set_counts


@THREAD_WORKERS
def test_convert_to_atc_container_matches_serial(tmp_path, workers):
    source = tmp_path / "source.k6.trc"
    write_k6_records(source, [_k6_records()])
    convert_to_atc(source, tmp_path / "serial", config=_config(1))
    convert_to_atc(source, tmp_path / "threaded", config=_config(workers))
    serial = _files(tmp_path / "serial")
    assert len(serial) > 3  # several chunks, or nothing ran on the pool
    assert _files(tmp_path / "threaded") == serial


@THREAD_WORKERS
def test_export_from_atc_matches_serial(tmp_path, workers):
    source = tmp_path / "source.k6.trc"
    write_k6_records(source, [_k6_records()])
    container = tmp_path / "container"
    convert_to_atc(source, container, config=_config(1))
    serial = export_from_atc(container, tmp_path / "serial.k6.trc", chunk_addresses=700, workers=1)
    threaded = export_from_atc(
        container, tmp_path / "threaded.k6.trc", chunk_addresses=700, workers=workers
    )
    assert threaded["records"] == serial["records"] == 3_000
    assert (tmp_path / "threaded.k6.trc").read_bytes() == (tmp_path / "serial.k6.trc").read_bytes()
    assert (tmp_path / "serial.k6.trc").read_bytes() == source.read_bytes()
