"""Table 1 — bits per address of the lossless compressors.

Paper columns: bzip2 alone (bz2), byte-unshuffling + bzip2 (us), the
TCgen/VPC compressor (tcg), bytesort with a small buffer (bs1) and bytesort
with a big buffer (bs10), over 22 SPEC CPU2006 cache-filtered traces of
100 M addresses each.  Paper means: 8.63 / 5.34 / 3.56 / 3.27 / 2.65.

This bench computes the same five columns over the 22 synthetic SPEC-like
traces (scaled lengths, scaled buffers — see benchmarks/conftest.py) and
checks the ordering claims.  The bytesort columns are the on-disk size of
the lossless container ``repro compress`` writes (chunk files plus INFO):

* unshuffling beats bzip2 alone on average,
* bytesort (big buffer) beats unshuffling and the VPC baseline on average,
* the big buffer is at least as good as the small buffer.
"""

from __future__ import annotations

from typing import Dict

from benchmarks.conftest import BIG_BUFFER, SMALL_BUFFER
from repro.analysis.metrics import arithmetic_mean, bits_per_address
from repro.analysis.reporting import render_table
from repro.baselines.generic import raw_bits_per_address
from repro.baselines.unshuffle import unshuffled_bits_per_address
from repro.experiments import CodecSpec, evaluate_codec
from repro.predictors.vpc import VpcCodec

COLUMNS = ("bz2", "us", "tcg", "bs-small", "bs-big")


def _bytesort_bits_per_address(addresses, buffer_addresses: int) -> float:
    codec = CodecSpec(kind="lossless", buffer_addresses=buffer_addresses)
    return evaluate_codec(codec, addresses)["bits_per_address"]


def _compute_rows(suite_traces) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    for name, trace in suite_traces.items():
        addresses = trace.addresses
        if len(addresses) < 1_000:
            # Too few filtered addresses for a meaningful per-address figure
            # (the povray-like workload is almost fully cache-resident).
            continue
        vpc_payload = VpcCodec().compress(addresses)
        rows[name] = {
            "bz2": raw_bits_per_address(addresses),
            "us": unshuffled_bits_per_address(addresses, buffer_addresses=SMALL_BUFFER),
            "tcg": bits_per_address(len(vpc_payload), len(addresses)),
            "bs-small": _bytesort_bits_per_address(addresses, SMALL_BUFFER),
            "bs-big": _bytesort_bits_per_address(addresses, BIG_BUFFER),
        }
    return rows


def test_table1_lossless_bits_per_addr(suite_traces, benchmark):
    rows = benchmark.pedantic(_compute_rows, args=(suite_traces,), rounds=1, iterations=1)
    print()
    print(render_table("Table 1 (reproduction): bits per address, lossless compressors", rows, COLUMNS))
    means = {column: arithmetic_mean([row[column] for row in rows.values()]) for column in COLUMNS}
    # Paper claims, checked as orderings of the suite means.
    assert means["us"] < means["bz2"], "byte-unshuffling must beat bzip2 alone on average"
    assert means["bs-big"] < means["us"], "bytesort must beat plain unshuffling on average"
    assert means["bs-big"] < means["tcg"], "big bytesort must beat the TCgen-style baseline"
    assert means["bs-big"] <= means["bs-small"] * 1.02, "a bigger buffer must not hurt"
    # Every method stays below the raw 64 bits/address.
    for row in rows.values():
        for column in COLUMNS:
            assert row[column] < 64.0
