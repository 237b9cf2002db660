"""Tests of sweep execution: caching, resume, parallelism, harness parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.harness import EvaluationHarness
from repro.errors import ConfigurationError
from repro.experiments import ResultStore, SweepRunner, run_sweep, sweep_spec_from_dict
from repro.experiments.plan import expand_sweep

_SPEC = sweep_spec_from_dict(
    {
        "name": "grid",
        "workloads": [
            {"name": "429.mcf", "references": 6000},
            {"name": "462.libquantum", "references": 6000},
        ],
        "filters": [
            {"label": "l1-paper"},
            {"label": "l1-8KB", "capacity_bytes": 8192, "associativity": 2},
        ],
        "codecs": [{"kind": "lossless"}, {"kind": "lossy"}],
        "scale": {"small_buffer": 1000, "interval_length": 1000},
    }
)


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = "0" * 64
        assert store.get(key) is None
        store.put(key, {"bits_per_address": 2.5})
        assert store.get(key) == {"bits_per_address": 2.5}
        assert key in store
        assert store.size() == 1

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "1" * 64
        store.put(key, {"x": 1})
        (tmp_path / f"{key}.json").write_text("{half written")
        assert store.get(key) is None

    def test_malformed_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ConfigurationError, match="malformed unit hash"):
            store.get("../escape")

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("2" * 64, {})
        store.put("3" * 64, {})
        assert store.clear() == 2
        assert store.size() == 0


class TestSweepRunner:
    def test_first_run_computes_second_run_hits_cache(self, tmp_path):
        runner = SweepRunner(_SPEC, cache_dir=tmp_path / "cache")
        first = runner.run()
        assert len(first.rows) == 8
        assert first.cached_count() == 0
        assert all(row.bits_per_address > 0 for row in first.rows)
        second = runner.run()
        assert second.cached_count() == 8
        assert [r.bits_per_address for r in second.rows] == [
            r.bits_per_address for r in first.rows
        ]

    def test_rows_come_back_in_grid_order(self, tmp_path):
        result = run_sweep(_SPEC, cache_dir=tmp_path / "cache")
        labels = [(r.workload, r.filter, r.codec) for r in result.rows]
        expected = [
            (u.workload.name, u.filter.name, u.codec.name) for u in expand_sweep(_SPEC).units
        ]
        assert labels == expected

    def test_parallel_run_matches_serial(self, tmp_path):
        def measured(result):
            # Everything except wall-clock time must be scheduling-invariant.
            return [
                {k: v for k, v in row.to_dict().items() if k != "seconds"}
                for row in result.rows
            ]

        serial = run_sweep(_SPEC)
        parallel = SweepRunner(_SPEC, cache_dir=None, workers=4).run()
        assert measured(serial) == measured(parallel)

    def test_resume_recomputes_only_missing_cells(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        runner = SweepRunner(_SPEC, cache_dir=cache)
        runner.run()
        # Drop one cached cell, then count how many cells are re-evaluated.
        victim = expand_sweep(_SPEC).units[3]
        (cache / f"{victim.unit_hash(runner.code_version)}.json").unlink()
        evaluated = []
        original = SweepRunner._evaluate_unit

        def counting(self, unit, addresses):
            evaluated.append(unit.label)
            return original(self, unit, addresses)

        monkeypatch.setattr(SweepRunner, "_evaluate_unit", counting)
        resumed = SweepRunner(_SPEC, cache_dir=cache).run()
        assert evaluated == [victim.label]
        assert resumed.cached_count() == 7

    def test_fully_cached_groups_skip_trace_generation(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        SweepRunner(_SPEC, cache_dir=cache).run()

        def exploding(self, workload, filter_spec):
            raise AssertionError("cached sweep must not regenerate traces")

        monkeypatch.setattr(SweepRunner, "_filtered_trace", exploding)
        result = SweepRunner(_SPEC, cache_dir=cache).run()
        assert result.cached_count() == 8

    def test_schema_incomplete_cache_entry_reads_as_miss(self, tmp_path):
        cache = tmp_path / "cache"
        runner = SweepRunner(_SPEC, cache_dir=cache)
        runner.run()
        # Hand-edit one entry: still valid JSON, but missing a required key.
        victim = expand_sweep(_SPEC).units[0]
        path = cache / f"{victim.unit_hash(runner.code_version)}.json"
        entry = json.loads(path.read_text())
        del entry["addresses"]
        path.write_text(json.dumps(entry))
        resumed = SweepRunner(_SPEC, cache_dir=cache).run()
        assert resumed.cached_count() == 7  # recomputed, not crashed
        assert all(row.addresses > 0 for row in resumed.rows)

    def test_trace_provider_preempts_generation(self, monkeypatch):
        baseline = run_sweep(_SPEC)
        # Capture the traces the runner would generate, keyed per group.
        plain = SweepRunner(_SPEC)
        traces = {
            (workload.name, filter_spec.name): plain._filtered_trace(workload, filter_spec)
            for (workload, filter_spec), _units in plain.plan.groups()
        }
        provided = []

        def provider(workload, filter_spec):
            provided.append((workload.name, filter_spec.name))
            return traces[(workload.name, filter_spec.name)]

        # With the provider covering every group, the generation path must
        # never run.
        import repro.traces.filter as filter_module

        def exploding(*args, **kwargs):
            raise AssertionError("provider-covered sweep must not generate traces")

        monkeypatch.setattr(filter_module, "filtered_spec_like_trace", exploding)
        result = SweepRunner(_SPEC, trace_provider=provider).run()
        assert len(provided) == len(traces)
        assert [r.bits_per_address for r in result.rows] == [
            r.bits_per_address for r in baseline.rows
        ]

    def test_code_version_invalidates_cache(self, tmp_path):
        cache = tmp_path / "cache"
        SweepRunner(_SPEC, cache_dir=cache, code_version="v1").run()
        rerun = SweepRunner(_SPEC, cache_dir=cache, code_version="v2").run()
        assert rerun.cached_count() == 0

    def test_no_cache_dir_disables_caching(self):
        runner = SweepRunner(_SPEC, cache_dir=None)
        assert runner.run().cached_count() == 0
        assert runner.run().cached_count() == 0

    def test_status_tracks_pending_cells(self, tmp_path):
        cache = tmp_path / "cache"
        runner = SweepRunner(_SPEC, cache_dir=cache)
        before = runner.status()
        assert (before.total_units, before.completed_units) == (8, 0)
        assert not before.is_complete
        runner.run()
        after = runner.status()
        assert after.is_complete
        assert after.pending == ()

    def test_different_filters_change_the_trace(self, tmp_path):
        result = run_sweep(_SPEC)
        by_cell = {(r.workload, r.filter, r.codec): r for r in result.rows}
        paper = by_cell[("429.mcf", "l1-paper", "lossless")]
        small = by_cell[("429.mcf", "l1-8KB", "lossless")]
        assert paper.addresses != small.addresses

    def test_fidelity_sweep_records_miss_ratio_error(self, tmp_path):
        spec = sweep_spec_from_dict(
            {
                "name": "fid",
                "workloads": [{"name": "429.mcf", "references": 6000}],
                "codecs": ["lossless", "lossy"],
                "scale": {"small_buffer": 1000, "interval_length": 1000, "set_counts": [64]},
                "fidelity": True,
            }
        )
        result = run_sweep(spec)
        by_codec = {r.codec: r for r in result.rows}
        assert "max_miss_ratio_error" in by_codec["lossy"].extra
        assert by_codec["lossy"].extra["max_miss_ratio_error"] >= 0.0
        assert by_codec["lossless"].extra == {}

    def test_fidelity_cell_encodes_once_and_stores_the_plain_size(self, monkeypatch):
        from repro.core import atc

        encodes = []
        compress_trace = atc.compress_trace
        monkeypatch.setattr(
            atc, "compress_trace", lambda *args: encodes.append(1) or compress_trace(*args)
        )
        cell = {
            "name": "fid-size",
            "workloads": [{"name": "429.mcf", "references": 6000}],
            "codecs": ["lossy"],
            "scale": {"small_buffer": 1000, "interval_length": 1000, "set_counts": [64]},
        }
        plain = run_sweep(sweep_spec_from_dict(cell)).rows[0]
        encodes.clear()
        checked = run_sweep(sweep_spec_from_dict({**cell, "fidelity": True})).rows[0]
        assert len(encodes) == 1
        assert checked.payload_bytes == plain.payload_bytes
        assert checked.bits_per_address == plain.bits_per_address


class TestHarnessParity:
    """A spec-driven sweep and the hand-driven harness agree exactly."""

    @pytest.fixture(scope="class")
    def harness(self):
        from repro.experiments.spec import EvaluationScale

        scale = EvaluationScale(
            references_per_workload=6000, small_buffer=1000, big_buffer=4000, interval_length=1000
        )
        # 453.povray filters down to a near-empty trace: the comparison
        # methods skip it via their minimum-length guards, and sweep_spec
        # must drop the same rows.
        return EvaluationHarness(scale, workloads=("429.mcf", "462.libquantum", "453.povray"))

    def test_table1_grid_matches_exactly(self, tmp_path, harness):
        sweep = SweepRunner(harness.sweep_spec("table1"), cache_dir=tmp_path / "c").run()
        hand = harness.lossless_comparison()
        (grid,) = sweep.tables().values()
        assert set(grid) == set(hand.rows), "same rows (length guard applied)"
        for workload, row in hand.rows.items():
            assert set(grid[workload]) == set(row), "same columns"
            for column, value in row.items():
                assert grid[workload][column] == pytest.approx(value, rel=0, abs=0)

    def test_table3_grid_matches_exactly(self, tmp_path, harness):
        sweep = SweepRunner(harness.sweep_spec("table3"), cache_dir=tmp_path / "c3").run()
        hand = harness.lossy_comparison()
        (grid,) = sweep.tables().values()
        assert set(grid) == set(hand.rows), "same rows (2x-interval guard applied)"
        for workload, row in hand.rows.items():
            for column, value in row.items():
                assert grid[workload][column] == pytest.approx(value, rel=0, abs=0)

    def test_length_guard_can_be_disabled(self, harness):
        guarded = harness.sweep_spec("table3")
        unguarded = harness.sweep_spec("table3", apply_length_guard=False)
        guarded_names = {w.name for w in guarded.workloads}
        assert {w.name for w in unguarded.workloads} == set(harness.workloads)
        assert "453.povray" not in guarded_names
        assert guarded_names < set(harness.workloads)

    def test_unknown_table_rejected(self, harness):
        with pytest.raises(ConfigurationError, match="unknown harness table"):
            harness.sweep_spec("table9")


class TestExports:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(_SPEC)

    def test_text_renders_one_table_per_filter(self, result):
        text = result.to_text()
        assert "Sweep grid [l1-paper]: bits per address" in text
        assert "Sweep grid [l1-8KB]: bits per address" in text
        assert "arith. mean" in text

    def test_markdown_table_shape(self, result):
        markdown = result.to_markdown()
        assert "| workload | lossless | lossy |" in markdown
        assert "| 429.mcf |" in markdown
        assert "*arith. mean*" in markdown

    def test_csv_has_one_row_per_cell(self, result):
        lines = result.to_csv().splitlines()
        assert lines[0].startswith("workload,filter,codec,")
        assert len(lines) == 1 + len(result.rows)

    def test_json_roundtrips(self, result):
        data = json.loads(result.to_json())
        assert data["name"] == "grid"
        assert len(data["rows"]) == len(result.rows)
        assert {row["codec"] for row in data["rows"]} == {"lossless", "lossy"}

    def test_unknown_format_rejected(self, result):
        with pytest.raises(ConfigurationError, match="unknown report format"):
            result.render("pdf")

    def test_csv_bpa_matches_rows(self, result):
        lines = result.to_csv().splitlines()[1:]
        for line, row in zip(lines, result.rows):
            assert line.split(",")[5] == f"{row.bits_per_address:.4f}"


class TestEvaluateCodecKinds:
    def test_every_kind_measures_positive_payload(self):
        from repro.experiments import CODEC_KINDS, CodecSpec, evaluate_codec
        from repro.experiments.spec import EvaluationScale

        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 4096, size=5000, dtype=np.uint64)
        scale = EvaluationScale(small_buffer=1000, interval_length=1000)
        for kind in CODEC_KINDS:
            measured = evaluate_codec(CodecSpec(kind=kind), addresses, scale)
            assert measured["payload_bytes"] > 0, kind
            assert measured["bits_per_address"] == pytest.approx(
                8.0 * measured["payload_bytes"] / addresses.size
            )

    @pytest.mark.parametrize("kind,mode", [("lossless", "c"), ("lossy", "k")])
    def test_atc_kinds_measure_the_shipped_container(self, tmp_path, kind, mode):
        from repro.core.atc import compress_trace
        from repro.experiments import CodecSpec, evaluate_codec
        from repro.experiments.codecs import resolve_lossy_config
        from repro.experiments.spec import EvaluationScale

        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 4096, size=5000, dtype=np.uint64)
        scale = EvaluationScale(small_buffer=1000, interval_length=1000)
        codec = CodecSpec(kind=kind, buffer_addresses=2000)
        decoder = compress_trace(addresses, tmp_path / "c", mode, resolve_lossy_config(codec, scale))
        measured = evaluate_codec(codec, addresses, scale)
        assert measured["payload_bytes"] == decoder.compressed_bytes()
        assert measured["bits_per_address"] == decoder.bits_per_address()
        if kind == "lossless":
            # The codec's buffer, not the scale's, sizes the container's chunks.
            assert decoder.metadata["chunk_buffer_addresses"] == 2000
            assert {record.length for record in decoder.records} == {2000, 1000}

    @pytest.mark.parametrize("backend", ["zlib", "lzma"])
    @pytest.mark.parametrize("kind,mode", [("lossless", "c"), ("lossy", "k")])
    def test_atc_kinds_honour_the_codec_backend(self, tmp_path, kind, mode, backend):
        from repro.core.atc import compress_trace
        from repro.experiments import CodecSpec, evaluate_codec
        from repro.experiments.codecs import resolve_lossy_config
        from repro.experiments.spec import EvaluationScale

        rng = np.random.default_rng(1)
        addresses = rng.integers(0, 4096, size=5000, dtype=np.uint64)
        scale = EvaluationScale(small_buffer=1000, interval_length=1000)
        codec = CodecSpec(kind=kind, backend=backend)
        config = resolve_lossy_config(codec, scale)
        assert config.backend == backend
        decoder = compress_trace(addresses, tmp_path / "c", mode, config)
        chunk_files = {path.suffix for path in (tmp_path / "c").iterdir()}
        assert chunk_files == {f".{backend}"}
        assert evaluate_codec(codec, addresses, scale)["payload_bytes"] == decoder.compressed_bytes()

    def test_lossy_codec_fields_override_the_scale(self, tmp_path):
        from repro.core.atc import compress_trace
        from repro.experiments import CodecSpec, evaluate_codec
        from repro.experiments.codecs import resolve_lossy_config
        from repro.experiments.spec import EvaluationScale

        rng = np.random.default_rng(2)
        addresses = rng.integers(0, 4096, size=6000, dtype=np.uint64)
        scale = EvaluationScale(small_buffer=1000, interval_length=1000)
        codec = CodecSpec(
            kind="lossy", interval_length=1500, threshold=0.0, enable_translation=False
        )
        config = resolve_lossy_config(codec, scale)
        assert (config.interval_length, config.threshold, config.enable_translation) == (
            1500,
            0.0,
            False,
        )
        decoder = compress_trace(addresses, tmp_path / "c", "k", config)
        assert [record.length for record in decoder.records] == [1500] * 4
        assert evaluate_codec(codec, addresses, scale)["payload_bytes"] == decoder.compressed_bytes()

    def test_empty_trace_measures_zero(self):
        from repro.experiments import CodecSpec, evaluate_codec

        measured = evaluate_codec(CodecSpec(kind="raw"), np.empty(0, dtype=np.uint64))
        assert measured == {"payload_bytes": 0, "bits_per_address": 0.0}
