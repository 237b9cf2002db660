"""Shared fixtures for the test suite.

Fixtures provide small, deterministic traces covering the behaviours the
library cares about: regular streams (highly compressible), random working
sets (the lossy codec's motivating case), phased streams (chunk reuse) and
cache-filtered spec-like traces (end-to-end material).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.traces import synthetic
from repro.traces.filter import filtered_spec_like_trace
from repro.traces.trace import AddressTrace

# ``HYPOTHESIS_PROFILE=ci`` makes every property test draw the same examples
# on every run and print a reproduction blob for any failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def sequential_addresses() -> np.ndarray:
    """A perfectly regular block-address stream (highly compressible)."""
    return np.arange(0x100000, 0x100000 + 20_000, dtype=np.uint64)


@pytest.fixture(scope="session")
def random_addresses(rng) -> np.ndarray:
    """Uniform random 64-bit values (essentially incompressible losslessly)."""
    return rng.integers(0, 1 << 58, size=20_000, dtype=np.uint64)


@pytest.fixture(scope="session")
def working_set_addresses(rng) -> np.ndarray:
    """Random accesses inside a fixed working set of 4096 blocks."""
    return rng.integers(0, 4096, size=60_000, dtype=np.uint64) + np.uint64(1 << 30)


@pytest.fixture(scope="session")
def phased_addresses() -> np.ndarray:
    """A stream that alternates between two behaviours (phase reuse)."""
    pieces = []
    for phase in range(6):
        if phase % 2 == 0:
            pieces.append(synthetic.sequential_stream(10_000, base=0x4000_0000, stride=64))
        else:
            pieces.append(
                synthetic.random_working_set(10_000, working_set_blocks=2048, seed=phase)
            )
    return synthetic.phased_stream(pieces) >> np.uint64(6)


@pytest.fixture(scope="session")
def filtered_trace() -> AddressTrace:
    """A small cache-filtered spec-like trace (end-to-end fixture)."""
    return filtered_spec_like_trace("429.mcf", 15_000, seed=7)
