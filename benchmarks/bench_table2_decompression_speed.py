"""Table 2 — decompression speed of bytesort vs the TCgen/VPC baseline.

The paper decompresses the 22 traces of Table 1 (2.2 G addresses) and
reports total time and addresses/second: TCgen 1.83 M addr/s, bytesort(1M)
2.57 M addr/s, bytesort(10M) 2.32 M addr/s — i.e. bytesort decodes 26-40 %
faster than the predictor-based baseline.

This bench decompresses the whole synthetic suite with both codecs and
checks the same relative claim (bytesort decodes more addresses per second
than the VPC baseline).  The bytesort columns decode the lossless
containers ``repro compress`` writes, digest checks included.  Absolute numbers are not comparable to the paper's
C implementation on a 2009 workstation — the shape is the claim.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Tuple

from benchmarks.conftest import BIG_BUFFER, SMALL_BUFFER
from repro.analysis.reporting import render_table
from repro.core.atc import MODE_LOSSLESS, compress_trace, decompress_trace
from repro.core.lossy import LossyConfig
from repro.predictors.vpc import VpcCodec


def _prepare_compressed(
    suite_traces, root: Path
) -> Tuple[Dict[str, Path], Dict[str, Path], Dict[str, bytes], int]:
    bytesort_small, bytesort_big, vpc = {}, {}, {}
    total_addresses = 0
    small_config = LossyConfig(chunk_buffer_addresses=SMALL_BUFFER)
    big_config = LossyConfig(chunk_buffer_addresses=BIG_BUFFER)
    for name, trace in suite_traces.items():
        addresses = trace.addresses
        if len(addresses) < 1_000:
            continue
        total_addresses += len(addresses)
        for containers, label, config in (
            (bytesort_small, "small", small_config),
            (bytesort_big, "big", big_config),
        ):
            containers[name] = root / f"{name}-{label}"
            compress_trace(addresses, containers[name], MODE_LOSSLESS, config)
        vpc[name] = VpcCodec().compress(addresses)
    return bytesort_small, bytesort_big, vpc, total_addresses


def _time_decompression(payloads: Dict[str, object], decompress) -> float:
    start = time.perf_counter()
    for payload in payloads.values():
        decompress(payload)
    return time.perf_counter() - start


def test_table2_decompression_speed(suite_traces, benchmark, tmp_path):
    bytesort_small, bytesort_big, vpc, total_addresses = _prepare_compressed(suite_traces, tmp_path)
    vpc_codec = VpcCodec()

    def run_all() -> Dict[str, float]:
        return {
            "tcg": _time_decompression(vpc, vpc_codec.decompress),
            "bs-small": _time_decompression(bytesort_small, decompress_trace),
            "bs-big": _time_decompression(bytesort_big, decompress_trace),
        }

    seconds = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = {
        "total time (s)": {k: v for k, v in seconds.items()},
        "addresses/second (x1e6)": {
            k: (total_addresses / v) / 1e6 if v > 0 else float("inf") for k, v in seconds.items()
        },
    }
    print()
    print(
        render_table(
            f"Table 2 (reproduction): decompression of {total_addresses} addresses",
            rows,
            columns=["tcg", "bs-small", "bs-big"],
            value_format="{:>10.3f}",
            mean_row=False,
        )
    )
    # The paper's relative claim: bytesort decodes faster than the VPC baseline.
    assert seconds["bs-small"] < seconds["tcg"]
    assert seconds["bs-big"] < seconds["tcg"]
