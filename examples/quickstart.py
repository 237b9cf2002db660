#!/usr/bin/env python
"""Quickstart: compress a cache-filtered address trace with ATC.

The script walks through the whole paper pipeline on a small scale:

1. generate a SPEC-like synthetic workload and filter it through the
   paper's 32 KB / 4-way / 64-byte-block L1 caches;
2. compress the filtered trace losslessly (bytesort + bzip2) into an ATC
   container and compare against bzip2 alone and the byte-unshuffling
   baseline;
3. compress it lossily (phase detection + byte translations) into a second
   container and check that the miss-ratio curve of the decoded trace
   tracks the exact one;
4. demonstrate the bytesort transformation on the worked example of the
   paper's Section 4.1.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import LossyConfig, compress_trace
from repro.baselines.generic import raw_bits_per_address
from repro.baselines.unshuffle import unshuffled_bits_per_address
from repro.cache.sweep import miss_ratio_sweep
from repro.core.bytesort import bytesort_inverse_window, bytesort_window
from repro.traces.filter import filtered_spec_like_trace


def demonstrate_bytesort() -> None:
    """The Section 4.1 worked example: two interleaved memory regions."""
    print("=== bytesort on the Section 4.1 example ===")
    interleaved = []
    f2_values = list(range(0xF200, 0xF300))
    a1_values = list(range(0xA100, 0xA180))
    while f2_values or a1_values:
        interleaved.extend(f2_values[:2])
        del f2_values[:2]
        if a1_values:
            interleaved.append(a1_values.pop(0))
    addresses = np.array(interleaved, dtype=np.uint64)
    transformed = bytesort_window(addresses)
    recovered = bytesort_inverse_window(transformed)
    low_block = transformed[-len(addresses) :]
    print(f"input addresses            : {len(addresses)} (two interleaved regions)")
    print(f"low-order byte block starts: {low_block[:8].hex(' ')} ...")
    print(f"reversible                 : {bool(np.array_equal(recovered, addresses))}")
    print()


def compare_lossless_methods(trace, workdir: Path) -> None:
    print("=== lossless compression (Table 1 style) ===")
    addresses = trace.addresses
    plain = raw_bits_per_address(addresses)
    unshuffled = unshuffled_bits_per_address(addresses, buffer_addresses=len(addresses))
    config = LossyConfig(chunk_buffer_addresses=len(addresses))
    decoder = compress_trace(addresses, workdir / "lossless", mode="c", config=config)
    bytesorted = decoder.bits_per_address()
    assert np.array_equal(decoder.read_all(), addresses)
    print(f"trace                 : {trace.name}, {len(trace)} filtered addresses")
    print(f"bzip2 alone           : {plain:6.2f} bits/address")
    print(f"byte-unshuffle + bzip2: {unshuffled:6.2f} bits/address")
    print(f"bytesort + bzip2      : {bytesorted:6.2f} bits/address (lossless, exact roundtrip)")
    print()


def compare_lossy_fidelity(trace, workdir: Path) -> None:
    print("=== lossy compression (Table 3 / Figure 3 style) ===")
    addresses = trace.addresses
    config = LossyConfig(interval_length=max(len(addresses) // 8, 1_000))
    decoder = compress_trace(addresses, workdir / "lossy", mode="k", config=config)
    approx = decoder.read_all()
    print(f"intervals             : {len(decoder.records)}")
    print(f"chunks stored         : {decoder.metadata['num_chunks']}")
    print(f"lossy bits/address    : {decoder.bits_per_address():6.2f}")
    exact_curve = miss_ratio_sweep(addresses, set_counts=[256])
    lossy_curve = miss_ratio_sweep(approx, set_counts=[256])
    print("miss ratio (256 sets) :  assoc   exact   lossy")
    for associativity in (1, 4, 16):
        print(
            f"                         {associativity:>5}"
            f"   {exact_curve.miss_ratio(256, associativity):5.3f}"
            f"   {lossy_curve.miss_ratio(256, associativity):5.3f}"
        )
    print()


def main() -> None:
    demonstrate_bytesort()
    trace = filtered_spec_like_trace("429.mcf", 40_000, seed=0)
    with tempfile.TemporaryDirectory() as workdir:
        compare_lossless_methods(trace, Path(workdir))
        compare_lossy_fidelity(trace, Path(workdir))
    print("done.")


if __name__ == "__main__":
    main()
