"""Ablation — capacity of the in-memory histogram (chunk) table.

Section 5.2: "When the table is full, we evict the entry belonging to the
oldest chunk."  A small table forgets old phases, so a workload that cycles
through phases A, B, A, B, ... keeps re-storing chunks it has already seen;
an adequately sized table stores each phase once and imitates ever after.

This bench compresses a phase-cycling trace with different table capacities
and checks that the chunk count (and hence the compressed size) drops as the
table grows, saturating once every distinct phase fits.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.atc import MODE_LOSSY, compress_trace
from repro.core.lossy import LossyConfig

_INTERVAL = 10_000
_DISTINCT_PHASES = 4
_CYCLES = 4
_TABLE_SIZES = (1, 2, 4, 8)


def _phase_cycling_trace() -> np.ndarray:
    """Four *structurally* different phases, repeated in a cycle.

    The phases differ in their sorted byte-histograms (working-set size and
    address distribution), not merely in which region they touch — ATC can
    imitate a region shift with byte translations, so region-only phases
    would all collapse into one chunk and defeat the ablation.
    """
    rng = np.random.default_rng(11)

    def phase(kind: int, cycle: int) -> np.ndarray:
        seed = 1_000 + kind * 17 + cycle
        local = np.random.default_rng(seed)
        if kind == 0:  # small random working set
            return local.integers(0, 1_024, size=_INTERVAL, dtype=np.uint64) + np.uint64(1 << 20)
        if kind == 1:  # sequential sweep
            start = np.uint64((2 << 20) + cycle)
            return start + np.arange(_INTERVAL, dtype=np.uint64)
        if kind == 2:  # huge sparse working set
            return local.integers(0, 1 << 26, size=_INTERVAL, dtype=np.uint64) + np.uint64(1 << 30)
        # kind == 3: skewed (geometric) reuse
        depths = np.minimum(local.geometric(p=0.01, size=_INTERVAL), 16_384).astype(np.uint64)
        return np.uint64(3 << 20) + depths

    segments = []
    for cycle in range(_CYCLES):
        for kind in range(_DISTINCT_PHASES):
            segments.append(phase(kind, cycle))
    return np.concatenate(segments)


def _sweep_table_sizes() -> Dict[int, Dict[str, float]]:
    trace = _phase_cycling_trace()
    results = {}
    for table_size in _TABLE_SIZES:
        config = LossyConfig(interval_length=_INTERVAL, max_table_entries=table_size)
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "container"
            decoder = compress_trace(trace, directory, MODE_LOSSY, config)
            imitated = sum(record.kind == "imitate" for record in decoder.records)
            results[table_size] = {
                "chunks": len(decoder.records) - imitated,
                "bpa": decoder.bits_per_address(),
                "imitation_fraction": imitated / len(decoder.records),
            }
    return results


def test_ablation_chunk_table_capacity(benchmark):
    results = benchmark.pedantic(_sweep_table_sizes, rounds=1, iterations=1)
    print()
    print("Ablation: histogram-table capacity on a phase-cycling trace "
          f"({_DISTINCT_PHASES} phases x {_CYCLES} cycles)")
    print(f"{'table entries':>14} {'chunks':>8} {'bits/addr':>11} {'imitated':>10}")
    for table_size in _TABLE_SIZES:
        row = results[table_size]
        print(
            f"{table_size:>14} {row['chunks']:>8d} {row['bpa']:>11.3f} "
            f"{row['imitation_fraction']:>9.0%}"
        )
    chunk_counts = [results[size]["chunks"] for size in _TABLE_SIZES]
    # Growing the table can only reduce (or keep) the number of stored chunks.
    assert all(a >= b for a, b in zip(chunk_counts, chunk_counts[1:]))
    # Once every distinct phase fits, each phase is stored exactly once.
    assert results[_TABLE_SIZES[-1]]["chunks"] == _DISTINCT_PHASES
    # A one-entry table forgets phases and keeps re-storing them.
    assert results[1]["chunks"] > _DISTINCT_PHASES
