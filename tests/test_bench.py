"""Tests of the continuous-benchmarking subsystem (repro.bench + CLI gate)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    REPORT_SCHEMA,
    BenchScale,
    build_report,
    compare_reports,
    load_report,
    render_report_text,
    resolved_executor_name,
    run_suite,
    save_report,
    SUITE_BENCHES_NAMES,
)
from repro.cli import bench_main
from repro.errors import BenchmarkError

SCALE = BenchScale(references=2_000)


@pytest.fixture(scope="module")
def suite_report() -> dict:
    """One real (tiny-scale) suite run shared by the run/report/CLI tests."""
    results = run_suite(SCALE, workers=1)
    return build_report(results, SCALE, "serial", 1)


def _synthetic_report(**overrides) -> dict:
    """A hand-built, schema-valid report for fast comparator tests."""
    benches = overrides.pop("benchmarks", None) or [
        {
            "name": "filter",
            "seconds": 1.0,
            "addresses": 1000,
            "payload_bytes": None,
            "bits_per_address": None,
            "peak_memory_bytes": 1_000_000,
            "addresses_per_second": 1000.0,
        },
        {
            "name": "encode_lossless",
            "seconds": 0.5,
            "addresses": 1000,
            "payload_bytes": 2500,
            "bits_per_address": 20.0,
            "peak_memory_bytes": 2_000_000,
            "addresses_per_second": 2000.0,
        },
    ]
    report = {
        "schema": REPORT_SCHEMA,
        "package_version": "0.0.0-test",
        "scale": BenchScale(references=1000).to_dict(),
        "executor": "serial",
        "workers": 1,
        "machine": {"python": "3.x", "platform": "test", "cpus": 1},
        "benchmarks": benches,
    }
    report.update(overrides)
    return report


class TestRunSuite:
    def test_runs_every_case_in_order(self, suite_report):
        assert [entry["name"] for entry in suite_report["benchmarks"]] == list(SUITE_BENCHES_NAMES)

    def test_metrics_are_populated(self, suite_report):
        for entry in suite_report["benchmarks"]:
            assert entry["seconds"] > 0
            assert entry["addresses"] > 0
            assert entry["peak_memory_bytes"] > 0
            assert entry["addresses_per_second"] > 0
        codec_entries = [e for e in suite_report["benchmarks"] if e["name"].startswith(("enc", "dec"))]
        assert all(e["bits_per_address"] > 0 and e["payload_bytes"] > 0 for e in codec_entries)

    def test_metrics_deterministic_across_runs_and_executors(self, suite_report):
        rerun = run_suite(SCALE, workers=2)
        by_name = {entry["name"]: entry for entry in suite_report["benchmarks"]}
        for result in rerun:
            assert result.bits_per_address == by_name[result.name]["bits_per_address"]
            assert result.payload_bytes == by_name[result.name]["payload_bytes"]
            assert result.addresses == by_name[result.name]["addresses"]

    def test_unknown_case_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown benchmark"):
            run_suite(SCALE, names=["warp_drive"])

    def test_new_cases_require_the_filter_stage(self):
        with pytest.raises(BenchmarkError, match="'filter' case must run first"):
            run_suite(SCALE, names=["filter_assoc"])
        with pytest.raises(BenchmarkError, match="'filter' case must run first"):
            run_suite(SCALE, names=["stackdist_curve"])

    def test_simulation_cases_are_present(self, suite_report):
        names = [entry["name"] for entry in suite_report["benchmarks"]]
        assert "filter_assoc" in names
        assert "stackdist_curve" in names

    def test_resolved_executor_name(self):
        assert resolved_executor_name(1) == "serial"
        assert resolved_executor_name(4) == "thread"


class TestReportSchema:
    def test_real_report_validates(self, suite_report):
        from repro.bench import validate_report

        assert validate_report(suite_report) is suite_report

    @pytest.mark.parametrize(
        "mutate, path_hint",
        [
            (lambda r: r.pop("schema"), "schema"),
            (lambda r: r.update(schema="bogus/9"), "schema"),
            (lambda r: r.pop("benchmarks"), "benchmarks"),
            (lambda r: r.update(benchmarks=[]), "benchmarks"),
            (lambda r: r["benchmarks"][0].pop("seconds"), "seconds"),
            (lambda r: r["benchmarks"][0].update(seconds="fast"), "seconds"),
            (lambda r: r["benchmarks"][0].update(seconds=-1.0), "non-negative"),
            (lambda r: r["benchmarks"][1].update(bits_per_address="tiny"), "bits_per_address"),
            (lambda r: r["scale"].pop("references"), "references"),
            (lambda r: r["benchmarks"].append(dict(r["benchmarks"][0])), "duplicate"),
        ],
    )
    def test_schema_violations_are_rejected_with_a_path(self, mutate, path_hint):
        from repro.bench import validate_report

        report = _synthetic_report()
        mutate(report)
        with pytest.raises(BenchmarkError, match=path_hint):
            validate_report(report)

    def test_save_and_load_round_trip(self, tmp_path, suite_report):
        path = tmp_path / "report.json"
        save_report(suite_report, str(path))
        assert load_report(str(path)) == suite_report

    def test_load_rejects_bad_files(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_report(str(missing))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(str(garbled))

    def test_render_text_mentions_every_case(self, suite_report):
        text = render_report_text(suite_report)
        for name in SUITE_BENCHES_NAMES:
            assert name in text


class TestComparator:
    def test_identical_reports_pass(self):
        report = _synthetic_report()
        comparison = compare_reports(report, copy.deepcopy(report))
        assert comparison.ok
        assert "PASS" in comparison.render()

    def test_synthetically_slowed_run_fails(self):
        baseline = _synthetic_report()
        slowed = copy.deepcopy(baseline)
        slowed["benchmarks"][0]["seconds"] = baseline["benchmarks"][0]["seconds"] * 2.0
        comparison = compare_reports(slowed, baseline, max_slowdown=1.25)
        assert not comparison.ok
        failed = {(check.bench, check.metric) for check in comparison.failures}
        assert ("filter", "seconds") in failed
        # The aggregate guard trips too (total 1.5s -> 2.5s), nothing else.
        assert failed == {("filter", "seconds"), ("suite-total", "seconds")}
        assert "FAIL" in comparison.render()

    def test_slowdown_inside_the_band_passes(self):
        baseline = _synthetic_report()
        slower = copy.deepcopy(baseline)
        slower["benchmarks"][0]["seconds"] = baseline["benchmarks"][0]["seconds"] * 1.2
        assert compare_reports(slower, baseline, max_slowdown=1.25).ok

    def test_noise_floor_tolerates_jitter_but_not_gross_regressions(self):
        # Big suite: total 0.01 + 0.5 = 0.51 s, so the scale-aware floor is
        # max(5 ms, 4% * 0.51 s) = 20.4 ms — the 10 ms case sits below it.
        baseline = _synthetic_report()
        baseline["benchmarks"][0]["seconds"] = 0.01
        jittery = copy.deepcopy(baseline)
        jittery["benchmarks"][0]["seconds"] = 0.02  # 2x, but still sub-floor noise
        assert compare_reports(jittery, baseline).ok
        # A sub-floor case that regresses past the floored band must fail:
        # the floor tolerates noise, it is not a blanket exemption.
        gross = copy.deepcopy(baseline)
        gross["benchmarks"][0]["seconds"] = 0.14  # 14x, well past 0.0204 * 1.25
        comparison = compare_reports(gross, baseline)
        assert not comparison.ok
        assert any(c.bench == "filter" and c.metric == "seconds" for c in comparison.failures)

    def test_noise_floor_scales_down_with_the_suite(self):
        # In a fast suite (total 0.02 s) the floor shrinks to the absolute
        # minimum (5 ms), so a 10 ms -> 40 ms regression is caught — under
        # the old flat 50 ms floor it would have been invisibly "noise".
        baseline = _synthetic_report()
        baseline["benchmarks"][0]["seconds"] = 0.01
        baseline["benchmarks"][1]["seconds"] = 0.01
        regressed = copy.deepcopy(baseline)
        regressed["benchmarks"][0]["seconds"] = 0.04  # 4x past the 0.0125 band
        comparison = compare_reports(regressed, baseline)
        assert not comparison.ok
        assert any(c.bench == "filter" and c.metric == "seconds" for c in comparison.failures)

    def test_bad_noise_fraction_rejected(self):
        report = _synthetic_report()
        with pytest.raises(BenchmarkError, match="noise_fraction"):
            compare_reports(report, copy.deepcopy(report), noise_fraction=1.0)

    def test_bits_per_address_drift_fails(self):
        baseline = _synthetic_report()
        drifted = copy.deepcopy(baseline)
        drifted["benchmarks"][1]["bits_per_address"] = 20.001
        comparison = compare_reports(drifted, baseline)
        assert not comparison.ok
        (failure,) = comparison.failures
        assert failure.metric == "bits_per_address"
        assert "drift" in failure.message

    def test_missing_benchmark_fails_and_new_one_passes(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        removed = current["benchmarks"].pop(0)
        current["benchmarks"].append({**removed, "name": "brand_new"})
        comparison = compare_reports(current, baseline)
        assert not comparison.ok
        assert {(c.bench, c.metric, c.ok) for c in comparison.checks if c.metric == "coverage"} == {
            ("filter", "coverage", False),
            ("brand_new", "coverage", True),
        }

    def test_scale_mismatch_is_an_error_not_a_verdict(self):
        baseline = _synthetic_report()
        other = _synthetic_report(scale=BenchScale(references=9999).to_dict())
        with pytest.raises(BenchmarkError, match="different scales"):
            compare_reports(other, baseline)

    def test_bad_tolerance_rejected(self):
        report = _synthetic_report()
        with pytest.raises(BenchmarkError, match="max_slowdown"):
            compare_reports(report, copy.deepcopy(report), max_slowdown=0.5)


class TestRunProfile:
    def test_profiles_selected_cases(self):
        from repro.bench import run_profile

        tables = run_profile(SCALE, names=["filter", "filter_assoc"], top=5)
        assert set(tables) == {"filter", "filter_assoc"}
        assert all("cumulative" in table for table in tables.values())
        # the hot path of the associative case is the cache simulation
        assert "access_lanes" in tables["filter_assoc"]

    def test_rejects_unknown_case_and_bad_top(self):
        from repro.bench import run_profile

        with pytest.raises(BenchmarkError, match="unknown benchmark"):
            run_profile(SCALE, names=["warp_drive"])
        with pytest.raises(BenchmarkError, match="table length"):
            run_profile(SCALE, names=["filter"], top=0)


class TestBenchCli:
    def test_profile_flag_prints_tables_on_stderr(self, capsys):
        code = bench_main(["--refs", "2000", "--json", "--profile", "5"])
        assert code == 0
        captured = capsys.readouterr()
        # stdout stays a clean JSON report; the profile tables ride stderr
        assert json.loads(captured.out)["schema"] == REPORT_SCHEMA
        assert "profile: filter (top 5" in captured.err
        assert "cumulative" in captured.err

    def test_emits_schema_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_TEST.json"
        code = bench_main(["--refs", "2000", "--json", "--output", str(out)])
        assert code == 0
        from repro.bench import validate_report

        emitted = json.loads(capsys.readouterr().out)
        assert validate_report(emitted)["scale"]["references"] == 2000
        assert load_report(str(out)) == emitted

    def test_gate_passes_on_own_baseline_and_fails_on_slowed_one(self, tmp_path, suite_report):
        baseline = tmp_path / "baseline.json"
        save_report(suite_report, str(baseline))
        # A very generous band vs a report from the same machine: pass.
        code = bench_main(
            ["--refs", "2000", "--json", "--baseline", str(baseline), "--max-slowdown", "50"]
        )
        assert code == 0
        # Corrupt the baseline's fidelity metric: the gate must go red even
        # with an infinite time band (drift is never tolerated).
        doctored = copy.deepcopy(suite_report)
        for entry in doctored["benchmarks"]:
            if entry["bits_per_address"] is not None:
                entry["bits_per_address"] += 1.0
        save_report(doctored, str(baseline))
        code = bench_main(
            ["--refs", "2000", "--json", "--baseline", str(baseline), "--max-slowdown", "1e9"]
        )
        assert code == 1

    def test_invalid_baseline_is_a_clean_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = bench_main(["--refs", "2000", "--json", "--baseline", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err
