"""Benchmark-report comparison: the CI regression gate's decision logic.

:func:`compare_reports` takes the report a fresh run just produced and the
committed ``benchmarks/baseline.json``, and renders a verdict per benchmark
and metric:

* **wall time** — fails when the current run is more than ``max_slowdown``
  times the baseline (default 1.25, the gate's ">25% regression" band).
  Baselines below the *noise floor* are floored before the band applies:
  sub-floor timings are scheduler noise, and a raw ratio over noise only
  produces flaky gates — but a case that jumps well past the floored band
  still fails.  The floor is **scale-aware**: the larger of a small
  absolute floor (``min_seconds``, default 5 ms) and a fixed fraction of
  the *baseline suite's total wall time* (``noise_fraction``, default
  4%).  A flat floor sized for one era of the suite goes blind as cases
  get faster — when the fastest case beats the floor, its regressions
  are invisible — whereas a fraction of the suite total shrinks with
  every speed-up and keeps the fast cases gated.  The *suite total*
  (summed over the cases both reports share) is gated by the same band
  as a second aggregate guard.
* **bits per address** — fails on *any* drift beyond float round-off
  (default tolerance ``1e-9`` relative).  The synthetic workloads are
  seeded and the containers byte-identical across worker counts, so for a
  fixed scale this metric is exact; a change means the on-disk format or a
  codec decision changed, which must never ride in under a perf PR.
* **coverage** — a benchmark present in the baseline but missing from the
  current run fails (a silently skipped case is not a passing case); new
  benchmarks in the current run pass with a note (the baseline needs a
  refresh, not a red build).

Regressions are *results*, not exceptions: the comparison object carries
every check so callers (CLI, CI logs, tests) can render the full table
before deciding the exit code.  Only structurally broken input — invalid
reports, mismatched scales — raises :class:`~repro.errors.BenchmarkError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.report import validate_report
from repro.errors import BenchmarkError

__all__ = ["BenchCheck", "BenchComparison", "compare_reports"]

#: Default tolerance band: fail beyond a 25% wall-time regression.
DEFAULT_MAX_SLOWDOWN = 1.25

#: Absolute noise-floor component: baselines below the effective floor are
#: floored before the band applies (see ``DEFAULT_NOISE_FRACTION``).
DEFAULT_MIN_SECONDS = 0.005

#: Scale-aware noise-floor component: fraction of the baseline suite's
#: total wall time.  The effective floor is
#: ``max(min_seconds, noise_fraction * baseline_total)``.
DEFAULT_NOISE_FRACTION = 0.04

#: Relative tolerance for the bits-per-address drift check (round-off only).
DEFAULT_BPA_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BenchCheck:
    """One (benchmark, metric) verdict.

    Attributes:
        bench: Benchmark case name.
        metric: ``"seconds"``, ``"bits_per_address"`` or ``"coverage"``.
        ok: Whether the check passed.
        message: Human-readable verdict line.
        current: The current run's value (``None`` when missing).
        baseline: The baseline's value (``None`` when missing).
    """

    bench: str
    metric: str
    ok: bool
    message: str
    current: Optional[float] = None
    baseline: Optional[float] = None


@dataclass(frozen=True)
class BenchComparison:
    """Every check of one report-vs-baseline comparison.

    Example:
        >>> good = BenchComparison(checks=(BenchCheck("filter", "seconds", True, "ok"),))
        >>> good.ok, len(good.failures)
        (True, 0)
    """

    checks: Tuple[BenchCheck, ...]

    @property
    def ok(self) -> bool:
        """True when every check passed (the gate's exit criterion)."""
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> Tuple[BenchCheck, ...]:
        """The failed checks, in report order."""
        return tuple(check for check in self.checks if not check.ok)

    def render(self) -> str:
        """Multi-line verdict table (one line per check, failures marked)."""
        lines = []
        for check in self.checks:
            marker = "ok  " if check.ok else "FAIL"
            lines.append(f"[{marker}] {check.bench}/{check.metric}: {check.message}")
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} regression(s))"
        lines.append(f"benchmark gate: {verdict}")
        return "\n".join(lines)


def _indexed(report: Dict) -> Dict[str, Dict]:
    return {entry["name"]: entry for entry in report["benchmarks"]}


def compare_reports(
    current: Dict,
    baseline: Dict,
    max_slowdown: float = DEFAULT_MAX_SLOWDOWN,
    min_seconds: float = DEFAULT_MIN_SECONDS,
    bpa_tolerance: float = DEFAULT_BPA_TOLERANCE,
    noise_fraction: float = DEFAULT_NOISE_FRACTION,
) -> BenchComparison:
    """Compare a fresh report against the committed baseline.

    Both reports are schema-validated first, and must have been run at the
    same scale (same ``references`` / workload / codec knobs) — comparing
    different scales is meaningless and raises
    :class:`~repro.errors.BenchmarkError` rather than producing a
    vacuous verdict.

    Args:
        current: The fresh run's report dict.
        baseline: The committed baseline report dict.
        max_slowdown: Wall-time tolerance band (1.25 = fail beyond +25%).
        min_seconds: Absolute component of the noise floor.
        bpa_tolerance: Relative bits-per-address tolerance (round-off only).
        noise_fraction: Scale-aware component of the noise floor, as a
            fraction of the baseline suite's total wall time over the
            shared cases; the effective floor is
            ``max(min_seconds, noise_fraction * baseline_total)``.

    Returns:
        A :class:`BenchComparison`; inspect ``.ok`` for the gate verdict.
    """
    validate_report(current)
    validate_report(baseline)
    if max_slowdown < 1.0:
        raise BenchmarkError(f"max_slowdown must be >= 1.0, got {max_slowdown}")
    if not 0.0 <= noise_fraction < 1.0:
        raise BenchmarkError(f"noise_fraction must be in [0, 1), got {noise_fraction}")
    if current["scale"] != baseline["scale"]:
        raise BenchmarkError(
            "benchmark reports were run at different scales and cannot be compared: "
            f"current {current['scale']!r} vs baseline {baseline['scale']!r}"
        )
    current_by_name = _indexed(current)
    baseline_by_name = _indexed(baseline)
    shared = [name for name in baseline_by_name if name in current_by_name]
    baseline_total = sum(float(baseline_by_name[n]["seconds"]) for n in shared)
    floor = max(min_seconds, noise_fraction * baseline_total)
    checks: List[BenchCheck] = []
    for name, base in baseline_by_name.items():
        entry = current_by_name.get(name)
        if entry is None:
            checks.append(
                BenchCheck(name, "coverage", False, "present in baseline but missing from this run")
            )
            continue
        checks.append(_check_seconds(name, entry, base, max_slowdown, floor))
        bpa_check = _check_bits_per_address(name, entry, base, bpa_tolerance)
        if bpa_check is not None:
            checks.append(bpa_check)
    if shared:
        # Aggregate band: per-case noise floors must not let a gross
        # regression in a fast case ride in — summed over the shared cases
        # the same tolerance applies unconditionally.
        total_entry = {"seconds": sum(float(current_by_name[n]["seconds"]) for n in shared)}
        total_base = {"seconds": baseline_total}
        checks.append(
            _check_seconds("suite-total", total_entry, total_base, max_slowdown, floor)
        )
    for name in current_by_name:
        if name not in baseline_by_name:
            checks.append(
                BenchCheck(name, "coverage", True, "new benchmark (refresh the baseline to gate it)")
            )
    return BenchComparison(checks=tuple(checks))


def _check_seconds(
    name: str, entry: Dict, base: Dict, max_slowdown: float, floor: float
) -> BenchCheck:
    current_s, base_s = float(entry["seconds"]), float(base["seconds"])
    # Sub-floor baselines are scheduler noise: flooring (instead of
    # skipping) keeps jitter green while a gross regression that climbs
    # past floor * max_slowdown still fails.  The caller computes the
    # scale-aware floor once per comparison from the baseline suite total.
    effective = max(base_s, floor)
    ok = current_s <= effective * max_slowdown
    floored = " (baseline floored at the noise level)" if base_s < floor else ""
    ratio = current_s / effective if effective > 0 else float("inf")
    comparison = (
        f"{current_s:.3f}s vs baseline {base_s:.3f}s "
        f"({ratio:.2f}x, tolerance {max_slowdown:.2f}x{floored})"
    )
    return BenchCheck(name, "seconds", ok, comparison, current=current_s, baseline=base_s)


def _check_bits_per_address(
    name: str, entry: Dict, base: Dict, tolerance: float
) -> Optional[BenchCheck]:
    current_bpa, base_bpa = entry.get("bits_per_address"), base.get("bits_per_address")
    if base_bpa is None and current_bpa is None:
        return None
    if (base_bpa is None) != (current_bpa is None):
        return BenchCheck(
            name,
            "bits_per_address",
            False,
            f"metric presence changed ({base_bpa!r} -> {current_bpa!r})",
            current=current_bpa,
            baseline=base_bpa,
        )
    drift = abs(float(current_bpa) - float(base_bpa))
    limit = tolerance * max(1.0, abs(float(base_bpa)))
    ok = drift <= limit
    message = (
        f"{current_bpa:.6f} vs baseline {base_bpa:.6f}"
        + ("" if ok else f" — fidelity drift {drift:.3e} exceeds {limit:.3e}")
    )
    return BenchCheck(name, "bits_per_address", ok, message, current=current_bpa, baseline=base_bpa)
