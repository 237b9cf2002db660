#!/usr/bin/env python
"""Compress a mini SPEC-like suite with every method (Table 1 in miniature).

Generates cache-filtered traces for a handful of the 22 SPEC-like workloads
and reports bits per address for:

* bzip2 alone (``bz2``),
* byte-unshuffling + bzip2 (``us``),
* the VPC/TCgen-style predictor compressor (``tcg``),
* small-buffer bytesort (``bs-small``),
* large-buffer bytesort (``bs-big``)

(the two bytesort columns are lossless ATC containers, measured on disk).

Run with:  python examples/spec_like_compression.py [references-per-workload]
"""

from __future__ import annotations

import sys

from repro.analysis.metrics import bits_per_address
from repro.analysis.reporting import render_table
from repro.baselines.generic import raw_bits_per_address
from repro.baselines.unshuffle import unshuffled_bits_per_address
from repro.experiments import CodecSpec, evaluate_codec
from repro.predictors.vpc import VpcCodec
from repro.traces.filter import filtered_spec_like_trace

WORKLOADS = ["410.bwaves", "429.mcf", "401.bzip2", "462.libquantum", "471.omnetpp", "403.gcc"]


def bytesort_bits_per_address(addresses, buffer_addresses: int) -> float:
    """Bits per address of the lossless container ``repro compress`` writes."""
    codec = CodecSpec(kind="lossless", buffer_addresses=buffer_addresses)
    return evaluate_codec(codec, addresses)["bits_per_address"]


def main() -> None:
    references = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    small_buffer = 4_000
    rows = {}
    for name in WORKLOADS:
        trace = filtered_spec_like_trace(name, references, seed=0)
        addresses = trace.addresses
        if len(addresses) == 0:
            continue
        vpc_payload = VpcCodec().compress(addresses)
        rows[name] = {
            "bz2": raw_bits_per_address(addresses),
            "us": unshuffled_bits_per_address(addresses, buffer_addresses=small_buffer),
            "tcg": bits_per_address(len(vpc_payload), len(addresses)),
            "bs-small": bytesort_bits_per_address(addresses, small_buffer),
            "bs-big": bytesort_bits_per_address(addresses, len(addresses)),
        }
        print(f"compressed {name}: {len(addresses)} filtered addresses")
    print()
    print(
        render_table(
            "Bits per address (smaller is better) — synthetic analogue of Table 1",
            rows,
            columns=["bz2", "us", "tcg", "bs-small", "bs-big"],
        )
    )


if __name__ == "__main__":
    main()
