"""Shared fixtures and scale parameters for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on
synthetic, scaled-down material (see DESIGN.md Section 2 for the
substitution rationale and Section 4 for the experiment index).  The scale
knobs below keep a full ``pytest benchmarks/ --benchmark-only`` run in the
minutes range on a laptop; set the ``REPRO_BENCH_REFS`` environment variable
to a larger value for a slower, higher-fidelity run.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np
import pytest

from repro.traces.filter import filter_spec_like_traces
from repro.traces.spec_like import SPEC_LIKE_NAMES
from repro.traces.trace import AddressTrace

#: References generated per workload before cache filtering.
BENCH_REFERENCES = int(os.environ.get("REPRO_BENCH_REFS", "30000"))

#: Workloads generated+filtered concurrently for the suite fixture
#: (``REPRO_BENCH_JOBS=0`` = one per CPU; more than one runs on threads).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Bytesort buffer sizes standing in for the paper's 1 M / 10 M buffers.
SMALL_BUFFER = 4_000
BIG_BUFFER = 64_000

#: Lossy interval length standing in for the paper's 10 M-address intervals.
LOSSY_INTERVAL = 5_000

#: The paper's threshold.
LOSSY_THRESHOLD = 0.1

#: Workload subset used by the figure benches (the paper's figures also show
#: a subset of the 22 traces).
FIGURE_WORKLOADS = (
    "400.perlbench",
    "401.bzip2",
    "429.mcf",
    "450.soplex",
    "456.hmmer",
    "458.sjeng",
    "462.libquantum",
    "470.lbm",
    "473.astar",
    "482.sphinx3",
)

#: Cache-set counts for the Figure 3 sweep (scaled from the paper's 2k-512k).
FIGURE3_SET_COUNTS = (64, 256, 1024, 4096)


def _generate_suite(names) -> Dict[str, AddressTrace]:
    # The suite fixture is the harness's biggest fixed cost; the batch
    # fan-out spreads workloads over BENCH_JOBS worker threads,
    # byte-identically to the serial loop.
    return filter_spec_like_traces(names, BENCH_REFERENCES, seed=0, workers=BENCH_JOBS)


@pytest.fixture(scope="session")
def suite_traces() -> Dict[str, AddressTrace]:
    """Cache-filtered traces for all 22 SPEC-like workloads (Table 1/2/3)."""
    return _generate_suite(SPEC_LIKE_NAMES)


@pytest.fixture(scope="session")
def figure_traces(suite_traces) -> Dict[str, AddressTrace]:
    """The subset of traces used by the figure benches."""
    return {name: suite_traces[name] for name in FIGURE_WORKLOADS}


@pytest.fixture(scope="session")
def random_values() -> np.ndarray:
    """Random 64-bit values for the Figure 8 bench."""
    rng = np.random.default_rng(2009)
    return rng.integers(0, 1 << 64, size=100_000, dtype=np.uint64)
