"""End-to-end integration tests crossing subsystem boundaries.

These tests exercise the full paper pipeline: synthetic workload ->
cache filter -> ATC compression (lossless and lossy) -> consumers
(cache simulation, address prediction) and check the headline claims of
the paper on a small scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import compare_miss_ratio_surfaces
from repro.analysis.metrics import bits_per_address
from repro.baselines.generic import raw_bits_per_address
from repro.baselines.unshuffle import unshuffled_bits_per_address
from repro.core.atc import MODE_LOSSLESS, compress_trace, decompress_trace
from repro.core.lossy import LossyConfig
from repro.predictors.vpc import VpcCodec
from repro.traces.filter import filtered_spec_like_trace

# End-to-end pipeline runs are the slowest cases in the suite; the CI fast
# lane deselects them with -m "not slow" while tier-1 runs everything.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def small_filtered_traces():
    """Three spec-like filtered traces spanning regular to irregular."""
    names = ["462.libquantum", "429.mcf", "401.bzip2"]
    return {name: filtered_spec_like_trace(name, 12_000, seed=11) for name in names}


@pytest.fixture
def lossless_bpa(encode):
    """Bits per address of a lossless container holding one bytesort buffer."""

    def measure(addresses):
        config = LossyConfig(chunk_buffer_addresses=len(addresses))
        return encode(addresses, config, mode=MODE_LOSSLESS).bits_per_address()

    return measure


class TestEndToEndLossless:
    def test_pipeline_roundtrips_for_every_trace(self, small_filtered_traces, encode):
        config = LossyConfig(chunk_buffer_addresses=4_000)
        for name, trace in small_filtered_traces.items():
            recovered = encode(trace.addresses, config, mode=MODE_LOSSLESS).read_all()
            assert np.array_equal(recovered, trace.addresses), name

    def test_table1_ordering_bzip2_vs_unshuffle_vs_bytesort(self, small_filtered_traces, lossless_bpa):
        """On average over the mini-suite: bz2 >= unshuffle >= bytesort."""
        bz2_mean, unshuffle_mean, bytesort_mean = 0.0, 0.0, 0.0
        for trace in small_filtered_traces.values():
            addresses = trace.addresses
            bz2_mean += raw_bits_per_address(addresses)
            unshuffle_mean += unshuffled_bits_per_address(addresses, buffer_addresses=len(addresses))
            bytesort_mean += lossless_bpa(addresses)
        assert bytesort_mean <= unshuffle_mean <= bz2_mean

    def test_bytesort_vs_vpc_on_regular_filtered_trace(self, small_filtered_traces, lossless_bpa):
        """The libquantum-like trace is the paper's best case for bytesort."""
        addresses = small_filtered_traces["462.libquantum"].addresses
        bytesort_bpa = lossless_bpa(addresses)
        vpc_payload = VpcCodec().compress(addresses)
        vpc_bpa = bits_per_address(len(vpc_payload), len(addresses))
        assert bytesort_bpa < vpc_bpa


class TestEndToEndLossy:
    def test_lossy_smaller_than_lossless_on_stationary_trace(
        self, small_filtered_traces, encode, lossless_bpa
    ):
        addresses = small_filtered_traces["429.mcf"].addresses
        config = LossyConfig(interval_length=max(len(addresses) // 8, 1_000))
        assert encode(addresses, config).bits_per_address() <= lossless_bpa(addresses)

    def test_lossy_miss_ratio_fidelity_end_to_end(self, small_filtered_traces):
        addresses = small_filtered_traces["429.mcf"].addresses
        config = LossyConfig(interval_length=max(len(addresses) // 6, 1_000))
        result = compare_miss_ratio_surfaces(addresses, set_counts=[64, 256], config=config)
        assert result.max_miss_ratio_error < 0.15

    def test_lossless_container_roundtrip_full_pipeline(self, tmp_path, small_filtered_traces):
        addresses = small_filtered_traces["462.libquantum"].addresses
        config = LossyConfig(chunk_buffer_addresses=2_000)
        compress_trace(addresses, tmp_path / "c", mode=MODE_LOSSLESS, config=config)
        assert np.array_equal(decompress_trace(tmp_path / "c"), addresses)
