"""Table 3 — bits per address: lossless vs lossy compression.

Paper setup: 1 G-address traces, lossless = bytesort with a 1 M buffer,
lossy = interval length L = 10 M, threshold eps = 0.1.  Paper means:
lossless 3.39 bits/address, lossy 0.72 bits/address, with the gap largest on
stable traces (400, 401, 456, 482) and smallest on unstable ones (403, 447).

This bench reproduces both columns on the 22 synthetic traces with scaled
lengths/intervals, as the on-disk size of the containers ``repro compress``
writes, and checks:

* lossy is never larger than lossless by more than a whisker on any trace,
* the suite mean drops by a clear factor,
* unstable (phase-churning) traces benefit less than stable ones.
"""

from __future__ import annotations

from typing import Dict

from benchmarks.conftest import LOSSY_INTERVAL, LOSSY_THRESHOLD, SMALL_BUFFER
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.reporting import render_table
from repro.experiments import CodecSpec, evaluate_codec
from repro.traces.spec_like import get_workload

COLUMNS = ("lossless", "lossy")


def _compute_rows(suite_traces) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    codecs = {
        "lossless": CodecSpec(kind="lossless", buffer_addresses=SMALL_BUFFER),
        "lossy": CodecSpec(
            kind="lossy",
            buffer_addresses=SMALL_BUFFER,
            interval_length=LOSSY_INTERVAL,
            threshold=LOSSY_THRESHOLD,
        ),
    }
    for name, trace in suite_traces.items():
        addresses = trace.addresses
        if len(addresses) < 2 * LOSSY_INTERVAL:
            # Need at least two intervals for lossy compression to mean anything.
            continue
        rows[name] = {
            column: evaluate_codec(codec, addresses)["bits_per_address"]
            for column, codec in codecs.items()
        }
    return rows


def test_table3_lossy_vs_lossless(suite_traces, benchmark):
    rows = benchmark.pedantic(_compute_rows, args=(suite_traces,), rounds=1, iterations=1)
    print()
    print(render_table("Table 3 (reproduction): lossless vs lossy bits per address", rows, COLUMNS))
    lossless_mean = arithmetic_mean([row["lossless"] for row in rows.values()])
    lossy_mean = arithmetic_mean([row["lossy"] for row in rows.values()])
    print(f"\nmean lossless {lossless_mean:.2f} bits/address, mean lossy {lossy_mean:.2f} bits/address")
    # Headline claim: lossy compression is clearly more compact on average.
    assert lossy_mean < lossless_mean * 0.8
    # Per trace, lossy must never lose to lossless by more than the fixed
    # imitation overhead.  At the paper's scale (L = 10 M addresses) the
    # 8 x 256-byte translation tables are negligible; at this bench's scaled
    # interval length (L = 5 k) they amount to up to ~3.3 bits/address, so
    # the bound below is |translation bytes| * 8 / L plus a small margin.
    per_interval_overhead_bits = 8.0 * (8 * 256 + 16) / LOSSY_INTERVAL + 0.5
    for name, row in rows.items():
        assert row["lossy"] <= row["lossless"] + per_interval_overhead_bits, name
    # Stable traces must benefit more than unstable (phase-churning) traces.
    gains_by_stability = {"stable": [], "mixed": [], "unstable": []}
    for name, row in rows.items():
        if row["lossy"] > 0:
            gains_by_stability[get_workload(name).stability].append(row["lossless"] / row["lossy"])
    if gains_by_stability["stable"] and gains_by_stability["unstable"]:
        assert arithmetic_mean(gains_by_stability["stable"]) >= arithmetic_mean(
            gains_by_stability["unstable"]
        )
