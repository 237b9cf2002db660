"""Run the ATC benchmark: one workload per process, its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload online_lossless --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--workload all`` runs every workload in its own fresh process, one
after the other.  The program is imported from ``src/`` of the checkout; if
it cannot be, the run exits nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("online_lossless", "online_lossy", "serve_mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="input seed (same seed, same inputs)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from the traced run")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> common.RunResult:
    """Pin the environment, import the program from source and run one workload."""
    work_dir = common.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        removed = common.pin_environment(work_dir)
        repro = common.import_repro()
        environment = common.environment_record(repro, args.seed, removed, work_dir)
        print("perfbench env " + json.dumps(environment), flush=True)
        if args.workload == "serve_mixed":
            from perfbench import serve

            return serve.run(args.seed, args.seconds, bool(args.trace), args.scale, work_dir)
        from perfbench import online

        return online.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def report(args: argparse.Namespace, result: common.RunResult) -> None:
    """Human-readable summary: every metric by name with its unit."""
    tally = result.tally
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"attempted={tally.attempted} failed={tally.failed} failed_frac={tally.failed_frac:.4g}"
    )
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, value in result.notes.items():
        print(f"  ({name} = {value})")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            status = child.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    report(args, result)
    print(result.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
