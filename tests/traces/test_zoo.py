"""Tests of the workload zoo: registry, mixes, sweep integration, MPKI bands."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import SweepRunner
from repro.traces.spec_like import SPEC_LIKE_NAMES, generate_reference_stream, get_workload
from repro.traces.zoo import (
    _COMPONENTS,
    _MIXES,
    ZOO_NAMES,
    _interleave_cores,
    get_zoo_workload,
    measure_mpki,
    zoo_suite,
    zoo_sweep_spec,
)

_CORE_STRIDE = 1 << 40


class TestRegistry:
    def test_catalog_has_all_three_families(self):
        assert len(ZOO_NAMES) >= 10
        families = {entry.family for entry in zoo_suite()}
        assert families == {"mix", "gap", "stream"}
        assert sum(1 for e in zoo_suite() if e.family == "mix") == 7

    def test_names_do_not_shadow_spec_like_workloads(self):
        assert not set(ZOO_NAMES) & set(SPEC_LIKE_NAMES)

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ConfigurationError, match="mix1"):
            get_zoo_workload("mix99")

    def test_get_workload_falls_back_to_the_zoo(self):
        for name in ZOO_NAMES:
            workload = get_workload(name)
            assert workload.name == name

    def test_get_workload_error_mentions_zoo_names(self):
        with pytest.raises(ConfigurationError, match="mix1"):
            get_workload("not-a-workload")

    def test_mix_entries_expose_their_composition(self):
        entry = get_zoo_workload("mix1")
        assert entry.cores == 4
        assert entry.components == ("imagick", "sssp", "stream_add", "mcf")
        assert "imagick" in entry.description


class TestStreams:
    @pytest.mark.parametrize("name", ["mix2", "gap.cc", "stream.triad"])
    def test_streams_are_deterministic_per_seed(self, name):
        first = generate_reference_stream(name, 4000, seed=3)
        second = generate_reference_stream(name, 4000, seed=3)
        assert np.array_equal(first.addresses, second.addresses)
        other = generate_reference_stream(name, 4000, seed=4)
        assert not np.array_equal(first.addresses, other.addresses)

    def test_mix_cores_live_in_disjoint_address_slices(self):
        workload = get_zoo_workload("mix4").workload
        data = workload.build_data(8000, 0)
        for core in range(4):
            slice_ids = data[core::4] // np.uint64(_CORE_STRIDE)
            assert np.all(slice_ids == core), f"core {core} escaped its address slice"

    def test_every_entry_builds_the_requested_length(self):
        for name in ZOO_NAMES:
            data = get_zoo_workload(name).workload.build_data(1003, 0)
            assert data.size == 1003
            assert data.dtype == np.uint64


class TestInterleaveCores:
    """The round-robin merger behind ``mix1``..``mix7``."""

    def test_single_core_passes_through(self):
        part = np.arange(5, dtype=np.uint64) * np.uint64(64)
        assert np.array_equal(_interleave_cores([part]), part)

    def test_two_equal_cores_alternate(self):
        merged = _interleave_cores(
            [np.array([1, 2, 3], dtype=np.uint64), np.array([10, 20, 30], dtype=np.uint64)]
        )
        assert merged.tolist() == [1, 10, 2, 20, 3, 30]

    def test_uneven_split_leads_with_the_first_cores(self):
        parts = [np.array([1, 2], dtype=np.uint64), np.array([10, 20], dtype=np.uint64)]
        parts.append(np.array([100], dtype=np.uint64))
        assert _interleave_cores(parts).tolist() == [1, 10, 100, 2, 20]

    def test_cores_without_references_are_absorbed(self):
        parts = [np.array([7], dtype=np.uint64)] + [np.empty(0, dtype=np.uint64)] * 3
        merged = _interleave_cores(parts)
        assert merged.dtype == np.uint64
        assert merged.tolist() == [7]

    @pytest.mark.parametrize("name,components", _MIXES, ids=[name for name, _ in _MIXES])
    def test_each_core_replays_its_own_component(self, name, components):
        """Per-core order survives the merge: core ``c`` is ``data[c::cores]``."""
        length, seed = 1001, 2
        data = get_zoo_workload(name).workload.build_data(length, seed)
        cores = len(components)
        for core, component in enumerate(components):
            expected = _COMPONENTS[component](len(range(core, length, cores)), seed + core)
            offset = np.uint64(core * _CORE_STRIDE)
            assert np.array_equal(data[core::cores] - offset, expected), component

    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_mix_shorter_than_its_core_count(self, length):
        data = get_zoo_workload("mix3").workload.build_data(length, 0)
        assert data.size == length
        assert data.dtype == np.uint64
        assert (data // np.uint64(_CORE_STRIDE)).tolist() == list(range(length))


class TestSweepIntegration:
    def test_zoo_grid_runs_and_caches_through_the_sweep_runner(self, tmp_path):
        spec = zoo_sweep_spec(references=1200)
        assert spec.num_units >= 10
        runner = SweepRunner(spec, cache_dir=tmp_path / "cache")
        result = runner.run()
        assert len(result.rows) == spec.num_units
        assert {row.workload for row in result.rows} == set(ZOO_NAMES)
        assert all(row.bits_per_address > 0 for row in result.rows)
        status = SweepRunner(spec, cache_dir=tmp_path / "cache").status()
        assert status.is_complete, "a second run must be served entirely from cache"

    def test_subset_and_validation(self):
        spec = zoo_sweep_spec(references=500, names=("mix1", "gap.bfs"))
        assert spec.num_units == 2
        with pytest.raises(ConfigurationError):
            zoo_sweep_spec(names=("mixX",))


class TestIntensityBands:
    """The qualitative MPKI ordering documented in docs/workloads.md."""

    def test_stream_is_lighter_than_mixes_is_lighter_than_gap(self):
        stream = measure_mpki("stream.copy", references=4000)
        mix = measure_mpki("mix5", references=4000)
        gap = measure_mpki("gap.bfs", references=4000)
        assert stream < mix < gap

    def test_gap_exceeds_stream_triad(self):
        assert measure_mpki("gap.bfs", references=4000) > measure_mpki(
            "stream.triad", references=4000
        )
