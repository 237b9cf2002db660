"""Expansion of a sweep spec into runnable, content-addressed units.

:func:`expand_sweep` turns a :class:`~repro.experiments.spec.SweepSpec`
into an :class:`ExperimentPlan`: one :class:`ExperimentUnit` per grid cell
``(workload, filter, codec)``, with every scale default resolved into the
unit, so a unit is self-contained and hashable.

The **unit hash** is a SHA-256 over the canonical JSON of the resolved unit
plus a *code version* string (``repro.__version__`` by default).  It is the
key of the on-disk result cache (:mod:`repro.experiments.store`): re-running
a sweep skips every cell whose hash already has a stored result, and bumping
the package version — or editing any parameter that reaches the unit —
invalidates exactly the affected cells.

Example:
    >>> from repro.experiments.spec import loads_sweep_spec
    >>> spec = loads_sweep_spec(
    ...     '{"name": "s", "workloads": ["429.mcf", "433.milc"],'
    ...     ' "codecs": ["lossless", "lossy"]}', format="json")
    >>> plan = expand_sweep(spec)
    >>> len(plan.units)
    4
    >>> plan.units[0].workload.name, plan.units[0].codec.kind
    ('429.mcf', 'lossless')
    >>> len(plan.units[0].unit_hash("v1"))  # stable SHA-256 hex digest
    64
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.spec import (
    CodecSpec,
    EvaluationScale,
    FilterSpec,
    SweepSpec,
    WorkloadSpec,
)

__all__ = ["ExperimentUnit", "ExperimentPlan", "expand_sweep", "default_code_version"]


def default_code_version() -> str:
    """The code-version string mixed into unit hashes (package version)."""
    import repro

    return f"repro-{repro.__version__}"


@dataclass(frozen=True)
class ExperimentUnit:
    """One runnable grid cell: a workload, a filter and a codec.

    The workload spec is stored *resolved* (references and seed filled from
    the sweep scale), so two sweeps whose cells coincide after inheritance
    share cache entries.

    Attributes:
        workload: Resolved workload cell.
        filter: Filter-cache cell.
        codec: Codec cell.
        scale: The sweep scale (codec parameter inheritance + fidelity grid).
        fidelity: Record the lossy miss-ratio error for this cell.
    """

    workload: WorkloadSpec
    filter: FilterSpec
    codec: CodecSpec
    scale: EvaluationScale
    fidelity: bool = False

    @property
    def label(self) -> str:
        """Human-readable cell id, e.g. ``429.mcf/l1-32KB-4w/lossless``."""
        return f"{self.workload.name}/{self.filter.name}/{self.codec.name}"

    def to_dict(self) -> Dict:
        """Canonical plain-data form of the cell (hash input)."""
        return {
            "workload": self.workload.to_dict(),
            "filter": self.filter.to_dict(),
            "codec": self.codec.to_dict(),
            "scale": self.scale.to_dict(),
            "fidelity": self.fidelity,
        }

    def hash_payload(self) -> Dict:
        """The result-affecting parameters of the cell, scale-resolved.

        Deliberately narrower than :meth:`to_dict`: cosmetic labels are
        excluded and scale knobs enter only through the parameters they
        resolve into, so two sweeps whose cells coincide after inheritance
        share cache entries, and renaming a column never invalidates one.
        """
        payload: Dict = {
            "workload": {
                "name": self.workload.name,
                "references": self.workload.references,
                "seed": self.workload.seed,
            },
            "filter": {
                "capacity_bytes": self.filter.capacity_bytes,
                "associativity": self.filter.associativity,
                "block_bytes": self.filter.block_bytes,
            },
            "codec": self.codec.resolved_params(self.scale),
        }
        if self.fidelity:
            payload["fidelity"] = {"set_counts": list(self.scale.set_counts)}
        return payload

    def unit_hash(self, code_version: str) -> str:
        """Content hash of (resolved cell parameters, code version).

        Canonical JSON (sorted keys, no whitespace) keeps the digest stable
        across Python versions and dict orderings.
        """
        canonical = json.dumps(
            {"unit": self.hash_payload(), "code_version": code_version},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentPlan:
    """The expanded form of a sweep: every unit, in grid order.

    Units are ordered workload-major, then filter, then codec — the same
    order the tables render in — and grouped so the runner can generate
    each (workload, filter) trace once and evaluate all codec cells on it.
    """

    spec: SweepSpec
    units: Tuple[ExperimentUnit, ...]

    def groups(self) -> List[Tuple[Tuple[WorkloadSpec, FilterSpec], Tuple[ExperimentUnit, ...]]]:
        """Units grouped by (workload, filter), preserving grid order.

        Each group shares one cache-filtered trace, the expensive part of a
        cell; the runner parallelises across groups.
        """
        grouped: Dict[Tuple[WorkloadSpec, FilterSpec], List[ExperimentUnit]] = {}
        for unit in self.units:
            grouped.setdefault((unit.workload, unit.filter), []).append(unit)
        return [(key, tuple(units)) for key, units in grouped.items()]

    def shard_units(
        self, shard_index: int, shard_count: int, code_version: str
    ) -> Tuple[ExperimentUnit, ...]:
        """The units shard ``shard_index`` of ``shard_count`` owns, grid order.

        Assignment is deterministic content-addressed sharding: a unit
        belongs to the (1-based) shard ``i`` of ``N`` iff
        ``int(unit_hash, 16) % N == i - 1``.  Every worker that expands
        the same spec under the same code version computes the same
        partition with no coordination, and the shards are disjoint and
        exhaustive by construction.  A shard may legitimately be empty
        (small grid, large ``N``).
        """
        if shard_count < 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(f"shard count must be >= 1, got {shard_count}")
        if not 1 <= shard_index <= shard_count:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"shard index must be in 1..{shard_count}, got {shard_index}"
            )
        return tuple(
            unit
            for unit in self.units
            if int(unit.unit_hash(code_version), 16) % shard_count == shard_index - 1
        )


def expand_sweep(spec: SweepSpec) -> ExperimentPlan:
    """Expand a sweep spec into its plan (workload-major grid order)."""
    units = tuple(
        ExperimentUnit(
            workload=workload.resolve(spec.scale),
            filter=filter_spec,
            codec=codec,
            scale=spec.scale,
            fidelity=spec.fidelity and codec.kind == "lossy",
        )
        for workload in spec.workloads
        for filter_spec in spec.filters
        for codec in spec.codecs
    )
    return ExperimentPlan(spec=spec, units=units)
