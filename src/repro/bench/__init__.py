"""Continuous benchmarking: programmatic suite runs, reports and the gate.

The paper's headline claims are throughput claims, so this package makes
speed a *guarded* quantity instead of a measured-and-forgotten one:

* :mod:`repro.bench.suite` — the operational benchmark suite (trace
  generation + cache filtering, lossless/lossy encode, decode), executed
  programmatically at a reproducible :class:`~repro.bench.suite.BenchScale`
  at a selectable worker count;
* :mod:`repro.bench.report` — the normalized machine-readable report
  format (``BENCH_*.json``), with a dependency-free schema validator;
* :mod:`repro.bench.compare` — the regression gate's decision logic:
  wall-time tolerance band, exact bits-per-address drift detection, and
  coverage checks against the committed ``benchmarks/baseline.json``.

The ``repro bench`` CLI subcommand glues the three together; CI runs it on
every push and fails the build on a regression (see ``docs/performance.md``
for the selection guide and the baseline-refresh procedure).

Example:
    >>> from repro.bench import BenchScale, run_suite, build_report, validate_report
    >>> results = run_suite(BenchScale(references=2000))
    >>> report = validate_report(build_report(results, BenchScale(references=2000), "serial", 1))
    >>> report["schema"]
    'repro-bench-report/1'
"""

from repro.bench.compare import BenchCheck, BenchComparison, compare_reports
from repro.bench.report import (
    REPORT_SCHEMA,
    build_report,
    load_report,
    render_report_text,
    save_report,
    validate_report,
)
from repro.bench.suite import (
    SUITE_BENCHES,
    SUITE_BENCHES_NAMES,
    BenchResult,
    BenchScale,
    resolved_executor_name,
    run_profile,
    run_suite,
)

__all__ = [
    "BenchScale",
    "BenchResult",
    "SUITE_BENCHES",
    "SUITE_BENCHES_NAMES",
    "run_suite",
    "run_profile",
    "resolved_executor_name",
    "REPORT_SCHEMA",
    "build_report",
    "validate_report",
    "render_report_text",
    "load_report",
    "save_report",
    "BenchCheck",
    "BenchComparison",
    "compare_reports",
]
