"""Ablation — choice of the byte-level back-end compressor.

The paper uses bzip2 after bytesort ("we could use another compressor, like
gzip" — Section 6).  This bench quantifies that freedom: it compresses a few
traces with bzip2, zlib (gzip's algorithm) and LZMA back-ends, after the
same bytesort transform, and reports bits per address and compression
throughput.  The expected shape is that the transform does most of the work
(every back-end beats raw bzip2-without-bytesort) and stronger back-ends
trade speed for modest extra density.
"""

from __future__ import annotations

from typing import Dict

from benchmarks.conftest import SMALL_BUFFER
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.reporting import render_table
from repro.baselines.generic import raw_bits_per_address
from repro.experiments import CodecSpec, evaluate_codec

_BACKENDS = ("bz2", "zlib", "lzma")
_WORKLOADS = ("410.bwaves", "433.milc", "456.hmmer", "462.libquantum", "470.lbm")


def _compare_backends(suite_traces) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    for name in _WORKLOADS:
        trace = suite_traces.get(name)
        if trace is None or len(trace) < 2_000:
            continue
        addresses = trace.addresses
        row = {"raw-bz2": raw_bits_per_address(addresses)}
        for backend in _BACKENDS:
            codec = CodecSpec(kind="lossless", buffer_addresses=SMALL_BUFFER, backend=backend)
            row[f"bs+{backend}"] = evaluate_codec(codec, addresses)["bits_per_address"]
        rows[name] = row
    return rows


def test_ablation_backend_choice(suite_traces, benchmark):
    rows = benchmark.pedantic(_compare_backends, args=(suite_traces,), rounds=1, iterations=1)
    columns = ["raw-bz2"] + [f"bs+{backend}" for backend in _BACKENDS]
    print()
    print(render_table("Ablation: byte-level back-end after bytesort (bits per address)", rows, columns))
    assert rows, "no trace was long enough for the backend ablation"
    means = {column: arithmetic_mean([row[column] for row in rows.values()]) for column in columns}
    # The bytesort transform dominates: any back-end beats raw bzip2 on these
    # regular traces, which is the paper's point that the transform (not the
    # entropy coder) carries the compression gain.
    for backend in _BACKENDS:
        assert means[f"bs+{backend}"] < means["raw-bz2"]
