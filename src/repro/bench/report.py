"""Normalized machine-readable benchmark reports (``BENCH_*.json``).

One report format, one schema version, one validator — shared by the
``repro bench`` CLI that emits reports, the CI gate that compares them, and
the per-PR trajectory files (``BENCH_PR4.json`` and successors) future
sessions consume.  The schema is deliberately flat and dependency-free (no
``jsonschema``): :func:`validate_report` is a hand-rolled structural check
that raises :class:`~repro.errors.BenchmarkError` with a path-qualified
message on the first violation.

Report layout (schema ``repro-bench-report/1``)::

    {
      "schema": "repro-bench-report/1",
      "package_version": "1.3.0",
      "scale": {"references": 30000, "workload": "429.mcf", ...},
      "executor": "serial",
      "workers": 1,
      "machine": {"python": "3.12.1", "platform": "Linux-...", "cpus": 4},
      "benchmarks": [
        {"name": "filter", "seconds": 0.41, "addresses": 1379,
         "payload_bytes": null, "bits_per_address": null,
         "peak_memory_bytes": 1048576, "addresses_per_second": 3363.4},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Dict, List, Optional

from repro.bench.suite import BenchResult, BenchScale
from repro.core.parallel import usable_cpus
from repro.errors import BenchmarkError

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "validate_report",
    "render_report_text",
    "load_report",
    "save_report",
]

#: Schema identifier stamped into (and required of) every report.
REPORT_SCHEMA = "repro-bench-report/1"

_BENCH_REQUIRED = {
    "name": str,
    "seconds": (int, float),
    "addresses": int,
    "peak_memory_bytes": int,
    "addresses_per_second": (int, float),
}

_BENCH_OPTIONAL_NUMERIC = ("payload_bytes", "bits_per_address")


def build_report(
    results: List[BenchResult],
    scale: BenchScale,
    executor: str,
    workers: int,
) -> Dict:
    """Assemble the normalized report dict from executed suite results."""
    import repro

    return {
        "schema": REPORT_SCHEMA,
        "package_version": repro.__version__,
        "scale": scale.to_dict(),
        "executor": str(executor),
        "workers": int(workers),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": usable_cpus(),
        },
        "benchmarks": [result.to_dict() for result in results],
    }


def _fail(path: str, message: str) -> None:
    raise BenchmarkError(f"invalid benchmark report: {path}: {message}")


def validate_report(report) -> Dict:
    """Structurally validate a report dict; returns it when sound.

    Checks the schema tag, the presence and types of every top-level field,
    and every benchmark entry's metrics (wall time non-negative, addresses
    non-negative, optional codec metrics numeric-or-null).  Raises
    :class:`~repro.errors.BenchmarkError` naming the offending path.
    """
    if not isinstance(report, dict):
        _fail("$", f"expected an object, got {type(report).__name__}")
    if report.get("schema") != REPORT_SCHEMA:
        _fail("schema", f"expected {REPORT_SCHEMA!r}, got {report.get('schema')!r}")
    for key, kind in (
        ("package_version", str),
        ("scale", dict),
        ("executor", str),
        ("workers", int),
        ("machine", dict),
        ("benchmarks", list),
    ):
        if key not in report:
            _fail(key, "missing")
        if not isinstance(report[key], kind):
            _fail(key, f"expected {kind.__name__}, got {type(report[key]).__name__}")
    if "references" not in report["scale"]:
        _fail("scale.references", "missing")
    if not report["benchmarks"]:
        _fail("benchmarks", "must contain at least one entry")
    seen = set()
    for index, entry in enumerate(report["benchmarks"]):
        path = f"benchmarks[{index}]"
        if not isinstance(entry, dict):
            _fail(path, f"expected an object, got {type(entry).__name__}")
        for key, kind in _BENCH_REQUIRED.items():
            if key not in entry:
                _fail(f"{path}.{key}", "missing")
            if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                _fail(f"{path}.{key}", f"expected a number, got {entry[key]!r}")
        for key in _BENCH_OPTIONAL_NUMERIC:
            value = entry.get(key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
                _fail(f"{path}.{key}", f"expected a number or null, got {value!r}")
        if entry["seconds"] < 0 or entry["addresses"] < 0:
            _fail(path, "seconds and addresses must be non-negative")
        if entry["name"] in seen:
            _fail(f"{path}.name", f"duplicate benchmark name {entry['name']!r}")
        seen.add(entry["name"])
    return report


def render_report_text(report: Dict) -> str:
    """Human-readable table of a validated report (the CLI's default view)."""
    lines = [
        f"repro bench — {report['scale']['references']} references, "
        f"executor={report['executor']}, workers={report['workers']}",
        f"{'benchmark':<18} {'seconds':>9} {'addr/s':>12} {'bits/addr':>10} {'peak MB':>9}",
    ]
    for entry in report["benchmarks"]:
        bpa = entry.get("bits_per_address")
        lines.append(
            f"{entry['name']:<18} {entry['seconds']:>9.3f} "
            f"{entry['addresses_per_second']:>12.0f} "
            f"{(f'{bpa:.3f}' if bpa is not None else '-'):>10} "
            f"{entry['peak_memory_bytes'] / 1e6:>9.1f}"
        )
    return "\n".join(lines)


def load_report(path) -> Dict:
    """Read and validate a report file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as error:
        raise BenchmarkError(f"cannot read benchmark report {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise BenchmarkError(f"benchmark report {path} is not valid JSON: {error}") from None
    return validate_report(report)


def save_report(report: Dict, path: Optional[str] = None) -> None:
    """Validate and write a report as pretty-printed JSON (stdout if no path)."""
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
