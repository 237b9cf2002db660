"""Tests of the exact-vs-lossy comparison pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import (
    compare_cdc_breakdowns,
    compare_miss_ratio_surfaces,
    regenerate_lossy_trace,
)
from repro.core.atc import MODE_LOSSY, compress_trace
from repro.core.lossy import LossyConfig
from repro.traces.trace import AddressTrace


@pytest.fixture(scope="module")
def stationary_trace():
    rng = np.random.default_rng(77)
    return rng.integers(0, 2_048, size=40_000, dtype=np.uint64) + np.uint64(1 << 22)


class TestRegenerateLossyTrace:
    def test_length_and_metadata(self, stationary_trace):
        config = LossyConfig(interval_length=10_000)
        approx, bpa, chunks, intervals = regenerate_lossy_trace(stationary_trace, config)
        assert approx.size == stationary_trace.size
        assert chunks == 1
        assert intervals == 4
        assert 0.0 < bpa < 64.0

    def test_reports_the_decode_and_size_of_the_written_container(self, tmp_path, stationary_trace):
        config = LossyConfig(interval_length=7_000, chunk_buffer_addresses=7_000)
        approx, bpa, chunks, intervals = regenerate_lossy_trace(stationary_trace, config)
        decoder = compress_trace(stationary_trace, tmp_path / "c", MODE_LOSSY, config)
        assert np.array_equal(approx, decoder.read_all())
        assert bpa == decoder.bits_per_address()
        assert chunks == len(decoder.container.chunk_ids())
        assert intervals == len(decoder.records) == 6

    def test_address_trace_and_array_agree(self, stationary_trace):
        config = LossyConfig(interval_length=10_000)
        from_array = regenerate_lossy_trace(stationary_trace, config)
        from_trace = regenerate_lossy_trace(AddressTrace(stationary_trace, name="s"), config)
        assert np.array_equal(from_array[0], from_trace[0])
        assert from_array[1:] == from_trace[1:]


class TestMissRatioComparison:
    def test_stationary_trace_has_small_error(self, stationary_trace):
        config = LossyConfig(interval_length=10_000)
        result = compare_miss_ratio_surfaces(
            stationary_trace, set_counts=[64, 256], config=config, trace_name="stationary"
        )
        assert result.trace_name == "stationary"
        assert result.num_chunks == 1
        assert result.max_miss_ratio_error < 0.08
        assert result.mean_miss_ratio_error <= result.max_miss_ratio_error
        assert 0.8 <= result.distinct_ratio <= 1.3

    def test_size_matches_the_lossy_sweep_cell(self, stationary_trace):
        """A fidelity cell reuses this size, so both must be the container's."""
        from repro.experiments import CodecSpec, evaluate_codec
        from repro.experiments.codecs import resolve_lossy_config
        from repro.experiments.spec import EvaluationScale

        codec = CodecSpec(kind="lossy")
        scale = EvaluationScale(small_buffer=5_000, interval_length=10_000)
        result = compare_miss_ratio_surfaces(
            stationary_trace, set_counts=[64], config=resolve_lossy_config(codec, scale)
        )
        measured = evaluate_codec(codec, stationary_trace, scale)
        assert result.bits_per_address == measured["bits_per_address"]

    def test_translation_off_increases_error_on_drifting_regions(self):
        """The Figure 4 effect measured through the comparison pipeline."""
        rng = np.random.default_rng(5)
        phases = [
            rng.integers(0, 2_048, size=15_000, dtype=np.uint64) + np.uint64((1 + index) << 22)
            for index in range(4)
        ]
        trace = np.concatenate(phases)
        with_translation = compare_miss_ratio_surfaces(
            trace, set_counts=[64], config=LossyConfig(interval_length=15_000, enable_translation=True)
        )
        without_translation = compare_miss_ratio_surfaces(
            trace, set_counts=[64], config=LossyConfig(interval_length=15_000, enable_translation=False)
        )
        assert without_translation.distinct_ratio < with_translation.distinct_ratio


@pytest.mark.slow
class TestCdcComparison:
    def test_breakdowns_cover_all_addresses(self, stationary_trace):
        config = LossyConfig(interval_length=10_000)
        exact, lossy, distance = compare_cdc_breakdowns(stationary_trace, config=config)
        assert exact.total == stationary_trace.size
        assert lossy.total == stationary_trace.size
        assert 0.0 <= distance <= 2.0

    def test_lossy_breakdown_close_to_exact_for_stationary_trace(self, stationary_trace):
        config = LossyConfig(interval_length=10_000)
        _, _, distance = compare_cdc_breakdowns(stationary_trace, config=config)
        assert distance < 0.3
