"""Tests of the declarative sweep-spec layer (parsing, defaults, validation)."""

from __future__ import annotations

import json
import sys

import pytest

from repro.errors import ConfigurationError
from repro.experiments.plan import expand_sweep
from repro.experiments.spec import (
    CodecSpec,
    EvaluationScale,
    FilterSpec,
    SweepSpec,
    WorkloadSpec,
    load_sweep_spec,
    loads_sweep_spec,
    sweep_spec_from_dict,
)

_JSON_SPEC = """
{
  "name": "json-sweep",
  "workloads": [{"name": "429.mcf"}, {"name": "433.milc", "references": 9000, "seed": 3}],
  "filters": [{"label": "small", "capacity_bytes": 16384, "associativity": 2}],
  "codecs": ["raw", {"kind": "lossless", "backend": "zlib"}],
  "scale": {"references_per_workload": 7000, "small_buffer": 2000},
  "fidelity": true
}
"""

_TOML_SPEC = """
name = "toml-sweep"

[[workloads]]
name = "429.mcf"

[[codecs]]
kind = "lossy"
threshold = 0.2

[scale]
interval_length = 2500
"""


class TestSpecParsing:
    def test_json_spec_parses_fully(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        assert spec.name == "json-sweep"
        assert [w.name for w in spec.workloads] == ["429.mcf", "433.milc"]
        assert spec.workloads[1].references == 9000
        assert spec.filters[0].name == "small"
        assert spec.codecs[0].kind == "raw"
        assert spec.codecs[1].backend == "zlib"
        assert spec.scale.small_buffer == 2000
        assert spec.fidelity is True

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
    def test_toml_spec_parses(self):
        spec = loads_sweep_spec(_TOML_SPEC)
        assert spec.name == "toml-sweep"
        assert spec.codecs[0].threshold == 0.2
        assert spec.scale.interval_length == 2500
        # No filters section: the paper's L1 geometry is implied.
        assert spec.filters == (FilterSpec(),)

    def test_load_from_file_defaults_name_to_stem(self, tmp_path):
        path = tmp_path / "nightly.json"
        path.write_text('{"workloads": ["429.mcf"], "codecs": ["raw"]}')
        spec = load_sweep_spec(path)
        assert spec.name == "nightly"

    def test_missing_file_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_sweep_spec(tmp_path / "absent.json")

    def test_invalid_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            loads_sweep_spec("{not json", format="json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep spec format"):
            loads_sweep_spec("{}", format="yaml")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep keys"):
            sweep_spec_from_dict(
                {"name": "s", "workloads": ["a"], "codecs": ["raw"], "surprise": 1}
            )
        with pytest.raises(ConfigurationError, match="unknown codec keys"):
            sweep_spec_from_dict(
                {"name": "s", "workloads": ["a"], "codecs": [{"kind": "raw", "level": 9}]}
            )

    def test_removed_policy_key_rejected(self):
        """Filters are LRU-only; a ``policy`` key fails at load time, named."""
        with pytest.raises(ConfigurationError, match=r"unknown filter keys: \['policy'\]"):
            FilterSpec.from_dict({"policy": "lru"})
        spec = {"workloads": ["429.mcf"], "codecs": ["raw"], "filters": [{"policy": "fifo"}]}
        with pytest.raises(ConfigurationError, match="policy"):
            loads_sweep_spec(json.dumps(spec), format="json")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
    def test_removed_policy_key_rejected_in_toml(self):
        text = _TOML_SPEC + '\n[[filters]]\nassociativity = 8\npolicy = "lru"\n'
        with pytest.raises(ConfigurationError, match="policy"):
            loads_sweep_spec(text)

    def test_roundtrip_through_dict(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        assert sweep_spec_from_dict(spec.to_dict()) == spec


class TestSpecValidation:
    def test_empty_grid_axes_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one workload"):
            SweepSpec(name="s", workloads=(), codecs=(CodecSpec(kind="raw"),))
        with pytest.raises(ConfigurationError, match="at least one codec"):
            SweepSpec(name="s", workloads=(WorkloadSpec("a"),), codecs=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate codec labels"):
            SweepSpec(
                name="s",
                workloads=(WorkloadSpec("a"),),
                codecs=(CodecSpec(kind="raw"), CodecSpec(kind="raw")),
            )

    def test_bad_codec_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown codec kind"):
            CodecSpec(kind="middle-out")

    def test_removed_delta_kind_names_the_known_kinds(self):
        known = "known kinds: raw, unshuffle, vpc, lossless, lossy$"
        with pytest.raises(ConfigurationError, match="'delta'; " + known):
            CodecSpec(kind="delta")

    def test_bad_backend_rejected_at_load_time(self):
        with pytest.raises(ConfigurationError, match="unknown compression backend"):
            CodecSpec(kind="raw", backend="bzip99")

    @pytest.mark.parametrize("backend", ["zlib", "gz", "lzma", "store"])
    def test_vpc_takes_bz2_only(self, backend):
        # The TCgen comparator's second stage is bzip2: a cell naming
        # another back-end would report the bz2 size under its label.
        with pytest.raises(ConfigurationError, match="vpc.*bz2 only"):
            CodecSpec(kind="vpc", backend=backend)
        with pytest.raises(ConfigurationError, match="bz2 only"):
            CodecSpec.from_dict({"kind": "vpc", "backend": backend})
        assert CodecSpec(kind="vpc", backend="bz2").name == "vpc"

    def test_bad_filter_geometry_rejected_at_load_time(self):
        with pytest.raises(ConfigurationError):
            FilterSpec(capacity_bytes=1000, associativity=3)  # not a power-of-two set count

    def test_labels_derive_from_parameters(self):
        assert FilterSpec().name == "l1-32KB-4w"
        assert CodecSpec(kind="lossless").name == "lossless"
        assert CodecSpec(kind="lossless", backend="zlib").name == "lossless@zlib"
        assert CodecSpec(kind="lossless", label="bs").name == "bs"


class TestPlanExpansion:
    def test_grid_order_and_resolution(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        plan = expand_sweep(spec)
        assert len(plan.units) == spec.num_units == 4
        # Workload-major order, codecs innermost.
        assert [u.label for u in plan.units] == [
            "429.mcf/small/raw",
            "429.mcf/small/lossless@zlib",
            "433.milc/small/raw",
            "433.milc/small/lossless@zlib",
        ]
        # Scale defaults resolve into the units; explicit values survive.
        assert plan.units[0].workload.references == 7000
        assert plan.units[2].workload.references == 9000
        assert plan.units[2].workload.seed == 3

    def test_fidelity_only_marks_lossy_cells(self):
        spec = sweep_spec_from_dict(
            {"name": "s", "workloads": ["a"], "codecs": ["raw", "lossy"], "fidelity": True}
        )
        plan = expand_sweep(spec)
        assert [u.fidelity for u in plan.units] == [False, True]

    def test_groups_share_workload_and_filter(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        groups = expand_sweep(spec).groups()
        assert len(groups) == 2  # 2 workloads x 1 filter
        for (workload, _filter), units in groups:
            assert all(u.workload == workload for u in units)

    def test_unit_hash_is_stable_and_parameter_sensitive(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        # units[1] is the lossless cell, which consumes the bytesort buffer.
        unit = expand_sweep(spec).units[1]
        assert unit.unit_hash("v1") == unit.unit_hash("v1")
        assert unit.unit_hash("v1") != unit.unit_hash("v2")
        rescaled = sweep_spec_from_dict(
            {**spec.to_dict(), "scale": {**spec.scale.to_dict(), "small_buffer": 999}}
        )
        assert expand_sweep(rescaled).units[1].unit_hash("v1") != unit.unit_hash("v1")

    def test_unit_hash_ignores_cosmetics_and_unused_knobs(self):
        spec = loads_sweep_spec(_JSON_SPEC, format="json")
        units = expand_sweep(spec).units
        raw_unit = units[0]
        # A raw cell never touches the bytesort buffer: rescaling it must
        # not invalidate the cached result.
        rescaled = sweep_spec_from_dict(
            {**spec.to_dict(), "scale": {**spec.scale.to_dict(), "small_buffer": 999}}
        )
        assert expand_sweep(rescaled).units[0].unit_hash("v") == raw_unit.unit_hash("v")
        # Renaming a column is cosmetic.
        relabelled = sweep_spec_from_dict(
            {**spec.to_dict(), "codecs": [{"kind": "raw", "label": "bzip2-alone"},
                                          {"kind": "lossless", "backend": "zlib"}]}
        )
        assert expand_sweep(relabelled).units[0].unit_hash("v") == raw_unit.unit_hash("v")
        # Alias spellings of the same back-end describe the same computation.
        aliased = sweep_spec_from_dict(
            {**spec.to_dict(), "codecs": [{"kind": "raw"}, {"kind": "lossless", "backend": "gz"}]}
        )
        assert (
            expand_sweep(aliased).units[1].unit_hash("v")
            == expand_sweep(spec).units[1].unit_hash("v")  # backend "zlib"
        )

    def test_inherited_cells_hash_identically_across_sweeps(self):
        # Two sweeps that resolve to the same cell share cache entries.
        base = {"name": "a", "workloads": [{"name": "w", "references": 5000}], "codecs": ["raw"]}
        explicit = sweep_spec_from_dict(base)
        inherited = sweep_spec_from_dict(
            {"name": "b", "workloads": ["w"], "codecs": ["raw"],
             "scale": {"references_per_workload": 5000}}
        )
        assert (
            expand_sweep(explicit).units[0].unit_hash("v")
            == expand_sweep(inherited).units[0].unit_hash("v")
        )


class TestEvaluationScale:
    def test_dict_roundtrip(self):
        scale = EvaluationScale(references_per_workload=123, set_counts=(8, 16))
        assert EvaluationScale.from_dict(scale.to_dict()) == scale

    def test_unknown_scale_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scale keys"):
            EvaluationScale.from_dict({"reference_count": 5})

    def test_reexported_from_analysis_harness(self):
        # The harness re-exports the same class, so old imports keep working.
        from repro.analysis.harness import EvaluationScale as HarnessScale

        assert HarnessScale is EvaluationScale
