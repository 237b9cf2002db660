"""The benchmark's own tests: tiny smoke runs, damaged outputs, tracing hygiene.

Run from the checkout root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from perfbench import common, layers, online, serve

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(scope="module", autouse=True)
def repro_from_source():
    common.import_repro()


def run_cli(*args: str):
    command = [sys.executable, str(common.ROOT / "perfbench" / "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=common.ROOT, timeout=300)


def run_in_process(workload: str, tmp_path, trace: bool = False) -> common.RunResult:
    if workload == "serve_mixed":
        return serve.run(5, 1.0, trace, "tiny", tmp_path)
    return online.run(workload, 5, 0.5, trace, "tiny", tmp_path)


def test_benchmark_names_match_the_code():
    from perfbench.run import WORKLOADS as RUN_WORKLOADS

    assert tuple(WORKLOADS) == RUN_WORKLOADS
    assert PER_LAYER == layers.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run_reports_every_metric(workload):
    completed = run_cli("--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values()), result["metrics"]
    assert '"repro_version"' in completed.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    result = run_in_process(workload, tmp_path, trace=True)
    assert result.tally.failed == 0
    assert {name: unit for name, (_, unit) in result.metrics.items()} == PER_LAYER
    assert result.metrics["trace.wall_s"][0] > 0
    assert result.metrics["backend.compress_busy_s"][0] > 0
    assert not layers.installed()


def test_run_fails_without_the_program_source(tmp_path):
    import shutil

    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "perfbench/run.py", "--workload", "online_lossy", "--seed", "1"]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_flipped_chunk_bit_counts_as_failed(monkeypatch, tmp_path):
    from repro.core.atc import AtcEncoder
    from repro.testing.faults import flip_bit

    close = AtcEncoder.close

    def close_then_damage(self):
        first_close = not self._closed  # __exit__ closes again; flip only once
        close(self)
        if first_close:
            flip_bit(self.container.path / f"1.{self.container.suffix}", 100)

    monkeypatch.setattr(AtcEncoder, "close", close_then_damage)
    for workload in ("online_lossless", "online_lossy"):
        result = run_in_process(workload, tmp_path)
        assert result.tally.attempted > 0
        assert 0 < result.tally.failed <= result.tally.attempted
        assert result.result_line().startswith('{"correct": false')


def test_wrong_decode_counts_as_failed(monkeypatch, tmp_path):
    from repro.core.atc import AtcDecoder

    read_all = AtcDecoder.read_all

    def off_by_one(self):
        values = read_all(self).copy()
        values[-1] ^= np.uint64(1)
        return values

    monkeypatch.setattr(AtcDecoder, "read_all", off_by_one)
    result = run_in_process("online_lossless", tmp_path)
    assert result.tally.failed > 0


def test_damaged_served_container_counts_as_failed(monkeypatch, tmp_path):
    request = serve.Server.request

    def truncate_uploads(self, method, path, body=None):
        if path == "/v1/decompress":
            body = body[:1000]
        return request(self, method, path, body)

    monkeypatch.setattr(serve.Server, "request", truncate_uploads)
    result = run_in_process("serve_mixed", tmp_path)
    assert result.tally.failed > 0
    assert result.tally.failed < result.tally.attempted  # the compresses still pass


def test_untraced_run_sees_no_wrapper(tmp_path):
    from repro.core import atc, lossless

    original = lossless.bytesort_transform
    result = online.run("online_lossy", 5, 0.5, False, "tiny", tmp_path)
    assert result.notes["wrappers_seen"] is False
    with layers.traced(layers.Tracer()):
        assert lossless.bytesort_transform is not original
        assert layers.installed()
    assert lossless.bytesort_transform is original
    assert atc.materialize_interval.__module__ == "repro.core.intervals"
    assert not layers.installed()


def test_self_time_excludes_child_spans():
    import time

    tracer = layers.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        tracer.call("child", child)

    tracer.call("parent", parent)
    assert tracer.busy["child"] >= 0.02
    assert 0.01 <= tracer.busy["parent"] < 0.02
    assert tracer.accounted == pytest.approx(tracer.busy["parent"] + tracer.busy["child"])
