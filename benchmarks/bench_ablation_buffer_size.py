"""Ablation — bytesort buffer size vs compression ratio (Section 4.1/4.2).

The paper: "A bigger buffer means that we work with bigger blocks, where
long-term regularity can be exposed.  Hence a bigger buffer yields a higher
compression ratio" (Table 1's bs1 vs bs10 columns).

This bench sweeps the bytesort buffer size over a few traces and checks the
suite-mean bits per address is non-increasing (within a small tolerance) as
the buffer grows.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.reporting import render_table
from repro.experiments import CodecSpec, evaluate_codec

_BUFFER_SIZES = (1_000, 4_000, 16_000, 64_000)
_WORKLOADS = ("401.bzip2", "429.mcf", "458.sjeng", "470.lbm", "482.sphinx3")


def _sweep_buffers(figure_traces) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    for name in _WORKLOADS:
        trace = figure_traces.get(name)
        if trace is None or len(trace) < 4_000:
            continue
        rows[name] = {
            f"B={buffer_size}": evaluate_codec(
                CodecSpec(kind="lossless", buffer_addresses=buffer_size), trace.addresses
            )["bits_per_address"]
            for buffer_size in _BUFFER_SIZES
        }
    return rows


def test_ablation_bytesort_buffer_size(figure_traces, benchmark):
    rows = benchmark.pedantic(_sweep_buffers, args=(figure_traces,), rounds=1, iterations=1)
    columns = [f"B={buffer_size}" for buffer_size in _BUFFER_SIZES]
    print()
    print(render_table("Ablation: bytesort buffer size (bits per address)", rows, columns))
    means: List[float] = [
        arithmetic_mean([row[column] for row in rows.values()]) for column in columns
    ]
    # Mean BPA must not get worse as the buffer grows (small tolerance for
    # bzip2 block-boundary noise on these short traces).
    for smaller, bigger in zip(means, means[1:]):
        assert bigger <= smaller * 1.03
    # And the largest buffer must strictly beat the smallest on the mean.
    assert means[-1] < means[0]
