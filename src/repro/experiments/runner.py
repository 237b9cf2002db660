"""Sweep execution: expand, run (in parallel), cache, aggregate.

:class:`SweepRunner` drives a declarative sweep end to end:

1. the spec expands into content-addressed units
   (:mod:`repro.experiments.plan`);
2. units group by (workload, filter) so the cache-filtered trace — the
   expensive part of a cell — is generated **once per group**, and only for
   groups with at least one uncached cell;
3. groups run concurrently on threads via
   :func:`repro.core.parallel.map_ordered` (trace generation and the
   byte-level codecs release the GIL);
4. each finished cell is written to the :class:`~repro.experiments.store.
   ResultStore`, so an interrupted sweep resumes from the completed cells
   and a repeated run completes near-instantly from cache;
5. the rows aggregate into a :class:`~repro.experiments.results.SweepResult`
   in grid order.

Example:
    >>> import tempfile
    >>> from repro.experiments.spec import loads_sweep_spec
    >>> spec = loads_sweep_spec(
    ...     '{"name": "tiny", "workloads": [{"name": "433.milc", "references": 4000}],'
    ...     ' "codecs": ["raw", "lossless"], "scale": {"small_buffer": 1000}}',
    ...     format="json")
    >>> runner = SweepRunner(spec, cache_dir=tempfile.mkdtemp())
    >>> first = runner.run()
    >>> [row.cached for row in first.rows]
    [False, False]
    >>> second = runner.run()   # second invocation: everything from cache
    >>> [row.cached for row in second.rows]
    [True, True]
    >>> first.rows[0].bits_per_address == second.rows[0].bits_per_address
    True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.parallel import map_ordered, resolve_workers
from repro.experiments.codecs import evaluate_codec, resolve_lossy_config
from repro.experiments.plan import ExperimentPlan, ExperimentUnit, default_code_version, expand_sweep
from repro.experiments.results import SweepResult, UnitResult
from repro.experiments.spec import FilterSpec, SweepSpec, WorkloadSpec
from repro.experiments.store import ResultStore

__all__ = ["SweepRunner", "SweepStatus", "run_sweep", "entry_is_complete", "row_from_entry"]

#: Keys a cache entry must carry to be usable; anything less reads as a miss
#: (same resilience contract as a corrupt entry — the cell is recomputed).
_REQUIRED_ENTRY_KEYS = ("addresses", "payload_bytes", "bits_per_address", "seconds")


def entry_is_complete(entry) -> bool:
    """Whether a store entry carries every required metric.

    The single completeness predicate shared by the runner's cache lookup
    and the distributed merge step, so "done iff the result exists (and is
    whole)" means the same thing everywhere.
    """
    return entry is not None and all(key in entry for key in _REQUIRED_ENTRY_KEYS)


def row_from_entry(unit: ExperimentUnit, entry: Dict, cached: bool) -> UnitResult:
    """Build one result row from a unit and its (computed or stored) entry.

    ``seconds`` is reported only for freshly computed cells — a cached
    cell's historical wall time is not this run's cost.
    """
    return UnitResult(
        workload=unit.workload.name,
        filter=unit.filter.name,
        codec=unit.codec.name,
        addresses=int(entry["addresses"]),
        payload_bytes=int(entry["payload_bytes"]),
        bits_per_address=float(entry["bits_per_address"]),
        seconds=0.0 if cached else float(entry["seconds"]),
        cached=cached,
        extra=dict(entry.get("extra") or {}),
    )


@dataclass(frozen=True)
class SweepStatus:
    """Cache occupancy of a sweep: how much of the grid is already done.

    Attributes:
        name: The sweep's name.
        total_units: Number of grid cells.
        completed_units: Cells with a stored result for the current code
            version.
        pending: Labels of the cells still to run, in grid order.
    """

    name: str
    total_units: int
    completed_units: int
    pending: Tuple[str, ...]

    @property
    def is_complete(self) -> bool:
        """True when every cell has a cached result."""
        return self.completed_units == self.total_units


class SweepRunner:
    """Executes a declarative sweep with caching and parallelism.

    Args:
        spec: The sweep to run.
        cache_dir: Result-store directory; ``None`` disables caching (every
            run recomputes every cell).
        workers: Number of (workload, filter) groups evaluated concurrently;
            ``0``/``None`` means one per CPU.  Results are identical for
            every worker count.
        code_version: Version string mixed into unit hashes; defaults to the
            package version, so upgrading the package invalidates the cache.
        trace_provider: Optional ``(workload, filter) -> array or None``
            callback consulted before generating a trace.  Lets a caller
            that already holds the cache-filtered traces (e.g. an
            :class:`~repro.analysis.harness.EvaluationHarness` with its
            per-workload trace cache) share them instead of paying
            generation + filtering twice; returning ``None`` falls back to
            generating.  The provider must return exactly the trace the
            runner would generate — it is a cache hook, not an override.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache_dir=None,
        workers: int = 1,
        code_version: Optional[str] = None,
        trace_provider=None,
    ) -> None:
        self.spec = spec
        self.plan: ExperimentPlan = expand_sweep(spec)
        self.store: Optional[ResultStore] = ResultStore(cache_dir) if cache_dir is not None else None
        self.workers = resolve_workers(workers)
        self.code_version = code_version if code_version is not None else default_code_version()
        self.trace_provider = trace_provider

    # -- traces -----------------------------------------------------------------------
    def _filtered_trace(self, workload: WorkloadSpec, filter_spec: FilterSpec) -> np.ndarray:
        """Generate + filter one (workload, filter) trace (no caching: the
        result store holds final metrics, traces are deterministic)."""
        from repro.traces.filter import filtered_spec_like_trace

        if self.trace_provider is not None:
            provided = self.trace_provider(workload, filter_spec)
            if provided is not None:
                return np.asarray(provided, dtype=np.uint64)
        config = filter_spec.cache_config()
        trace = filtered_spec_like_trace(
            workload.name,
            int(workload.references),
            seed=int(workload.seed),
            instruction_config=config,
            data_config=config,
        )
        return trace.addresses

    # -- units ------------------------------------------------------------------------
    def _evaluate_unit(self, unit: ExperimentUnit, addresses: np.ndarray) -> Dict:
        started = time.perf_counter()
        extra: Dict[str, float] = {}
        if unit.fidelity and unit.codec.kind == "lossy" and addresses.size:
            # Figure-3 style check: how far the lossy trace's miss-ratio
            # surface sits from the exact trace's.  Its one container round
            # trip also yields the cell's size, so the trace is encoded once.
            # Imported lazily to keep experiments importable without the
            # analysis layer.
            from repro.analysis.comparison import compare_miss_ratio_surfaces

            fidelity = compare_miss_ratio_surfaces(
                addresses,
                set_counts=tuple(unit.scale.set_counts),
                config=resolve_lossy_config(unit.codec, unit.scale),
                trace_name=unit.workload.name,
            )
            # ``bits`` is 8 * bytes / n, so rounding recovers the byte count exactly.
            bits = fidelity.bits_per_address
            measured = {"payload_bytes": round(bits * addresses.size / 8), "bits_per_address": bits}
            extra["max_miss_ratio_error"] = float(fidelity.max_miss_ratio_error)
        else:
            measured = evaluate_codec(unit.codec, addresses, unit.scale)
        return {
            "addresses": int(addresses.size),
            "payload_bytes": int(measured["payload_bytes"]),
            "bits_per_address": float(measured["bits_per_address"]),
            "seconds": time.perf_counter() - started,
            "extra": extra,
            "unit": unit.to_dict(),
        }

    def _run_group(
        self, group: Tuple[Tuple[WorkloadSpec, FilterSpec], Tuple[ExperimentUnit, ...]]
    ) -> List[UnitResult]:
        (workload, filter_spec), units = group
        cached: Dict[str, Dict] = {}
        missing: List[ExperimentUnit] = []
        for unit in units:
            entry = self.store.get(unit.unit_hash(self.code_version)) if self.store else None
            if entry_is_complete(entry):
                cached[unit.label] = entry
            else:
                missing.append(unit)
        addresses = self._filtered_trace(workload, filter_spec) if missing else None
        rows: List[UnitResult] = []
        for unit in units:
            if unit.label in cached:
                entry, was_cached = cached[unit.label], True
            else:
                entry, was_cached = self._evaluate_unit(unit, addresses), False
                if self.store is not None:
                    self.store.put(unit.unit_hash(self.code_version), entry)
            rows.append(row_from_entry(unit, entry, was_cached))
        return rows

    # -- public API -------------------------------------------------------------------
    def run(self) -> SweepResult:
        """Run (or resume) the sweep and return every cell's result.

        Groups with every cell cached never regenerate their trace; groups
        run concurrently when ``workers > 1``; rows come back in grid order
        regardless of scheduling.
        """
        groups = self.plan.groups()
        per_group = map_ordered(self._run_group, groups, workers=self.workers)
        by_label = {row_unit.label: row
                    for group_rows, (_, units) in zip(per_group, groups)
                    for row, row_unit in zip(group_rows, units)}
        ordered = tuple(by_label[unit.label] for unit in self.plan.units)
        return SweepResult(name=self.spec.name, rows=ordered)

    def status(self) -> SweepStatus:
        """How much of the grid the result store already holds."""
        pending = tuple(
            unit.label
            for unit in self.plan.units
            if self.store is None or unit.unit_hash(self.code_version) not in self.store
        )
        total = len(self.plan.units)
        return SweepStatus(
            name=self.spec.name,
            total_units=total,
            completed_units=total - len(pending),
            pending=pending,
        )


def run_sweep(spec: SweepSpec, cache_dir=None, workers: int = 1) -> SweepResult:
    """One-shot convenience: run a sweep spec and return its result."""
    return SweepRunner(spec, cache_dir=cache_dir, workers=workers).run()
