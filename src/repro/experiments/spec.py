"""Declarative experiment specifications (the input of a sweep).

A sweep is declared as a small tree of frozen dataclasses — *what* to run,
never *how*:

* :class:`WorkloadSpec` — one synthetic workload (name, reference count,
  seed);
* :class:`FilterSpec` — one L1 filter-cache geometry (the paper's 32 KB
  4-way configuration is the default);
* :class:`CodecSpec` — one compressor cell: a codec kind (``raw``,
  ``unshuffle``, ``vpc``, ``lossless``, ``lossy``) plus its
  parameters;
* :class:`EvaluationScale` — the shared scale knobs every cell inherits
  unless its codec overrides them;
* :class:`SweepSpec` — the cartesian grid ``workloads x filters x codecs``
  under one scale.

Specs are plain data: they load from TOML or JSON files
(:func:`load_sweep_spec`), round-trip through dictionaries
(:func:`sweep_spec_from_dict` / :meth:`SweepSpec.to_dict`) and contain
everything needed to compute a reproducible content hash per grid cell (see
:mod:`repro.experiments.plan`).

Example:
    >>> from repro.experiments.spec import sweep_spec_from_dict
    >>> spec = sweep_spec_from_dict({
    ...     "name": "demo",
    ...     "workloads": [{"name": "429.mcf"}, {"name": "462.libquantum"}],
    ...     "codecs": [{"kind": "lossless"}, {"kind": "lossy"}],
    ...     "scale": {"references_per_workload": 5000},
    ... })
    >>> [w.name for w in spec.workloads]
    ['429.mcf', '462.libquantum']
    >>> len(spec.filters)  # the paper's L1 geometry is implied
    1
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import CacheConfig
from repro.core.backend import get_backend
from repro.core.lossy import LossyConfig
from repro.errors import ConfigurationError

__all__ = [
    "EvaluationScale",
    "WorkloadSpec",
    "FilterSpec",
    "CodecSpec",
    "SweepSpec",
    "CODEC_KINDS",
    "load_sweep_spec",
    "loads_sweep_spec",
    "sweep_spec_from_dict",
]

#: Codec kinds a :class:`CodecSpec` may name, in Table 1/3 column order.
CODEC_KINDS: Tuple[str, ...] = ("raw", "unshuffle", "vpc", "lossless", "lossy")


@dataclass(frozen=True)
class EvaluationScale:
    """Scale knobs shared by every experiment (see ``benchmarks/conftest.py``).

    Attributes:
        references_per_workload: References generated before cache filtering.
        small_buffer: Bytesort buffer standing in for the paper's 1 M.
        big_buffer: Bytesort buffer standing in for the paper's 10 M.
        interval_length: Lossy interval length standing in for 10 M.
        threshold: Lossy threshold (paper: 0.1).
        set_counts: Cache set counts for the miss-ratio sweeps.
        seed: Workload generation seed.

    Example:
        >>> EvaluationScale(references_per_workload=5000).lossy_config().interval_length
        5000
    """

    references_per_workload: int = 30_000
    small_buffer: int = 4_000
    big_buffer: int = 64_000
    interval_length: int = 5_000
    threshold: float = 0.1
    set_counts: Sequence[int] = (64, 256, 1024)
    seed: int = 0

    def lossy_config(self, enable_translation: bool = True) -> LossyConfig:
        """The lossy configuration implied by the scale."""
        return LossyConfig(
            interval_length=self.interval_length,
            threshold=self.threshold,
            chunk_buffer_addresses=self.small_buffer,
            enable_translation=enable_translation,
        )

    def to_dict(self) -> Dict:
        """Plain-data form (JSON/TOML friendly)."""
        return {
            "references_per_workload": self.references_per_workload,
            "small_buffer": self.small_buffer,
            "big_buffer": self.big_buffer,
            "interval_length": self.interval_length,
            "threshold": self.threshold,
            "set_counts": list(self.set_counts),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "EvaluationScale":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(data)
        set_counts = data.pop("set_counts", None)
        known = {f: data.pop(f) for f in (
            "references_per_workload", "small_buffer", "big_buffer",
            "interval_length", "threshold", "seed",
        ) if f in data}
        if data:
            raise ConfigurationError(f"unknown scale keys: {sorted(data)}")
        if set_counts is not None:
            known["set_counts"] = tuple(int(count) for count in set_counts)
        return cls(**known)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload cell of the grid.

    Attributes:
        name: Spec-like workload name (``"429.mcf"`` or ``"429"``).
        references: Reference count before filtering; ``None`` inherits
            ``scale.references_per_workload``.
        seed: Workload RNG seed; ``None`` inherits ``scale.seed``.

    Example:
        >>> WorkloadSpec("429.mcf").to_dict()
        {'name': '429.mcf'}
    """

    name: str
    references: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("workload name must be non-empty")
        if self.references is not None and self.references <= 0:
            raise ConfigurationError("workload references must be positive")

    def resolve(self, scale: EvaluationScale) -> "WorkloadSpec":
        """Fill ``None`` fields from the sweep scale."""
        return WorkloadSpec(
            name=self.name,
            references=self.references if self.references is not None else scale.references_per_workload,
            seed=self.seed if self.seed is not None else scale.seed,
        )

    def to_dict(self) -> Dict:
        """Plain-data form, omitting inherited (``None``) fields."""
        out: Dict = {"name": self.name}
        if self.references is not None:
            out["references"] = self.references
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data) -> "WorkloadSpec":
        """Build from a mapping or a bare name string."""
        if isinstance(data, str):
            return cls(name=data)
        data = dict(data)
        _reject_unknown_keys(data, ("name", "references", "seed"), "workload")
        return cls(**data)


@dataclass(frozen=True)
class FilterSpec:
    """One L1 filter-cache geometry (both the I- and the D-cache).

    The default is the paper's Section 4.2 filter: 32 KB, 4-way, 64-byte
    blocks, LRU.

    Attributes:
        label: Row label in reports; auto-derived when empty.
        capacity_bytes: Total capacity of each filter cache.
        associativity: Ways per set.
        block_bytes: Cache block size in bytes.

    Example:
        >>> FilterSpec().name
        'l1-32KB-4w'
        >>> FilterSpec(capacity_bytes=16384, associativity=2).cache_config().num_sets
        128
    """

    label: str = ""
    capacity_bytes: int = 32 * 1024
    associativity: int = 4
    block_bytes: int = 64

    def __post_init__(self) -> None:
        # Validate eagerly: a bad geometry should fail at spec-load time,
        # not halfway through a sweep.
        self.cache_config()

    @property
    def name(self) -> str:
        """The report label (explicit, or derived from the geometry)."""
        if self.label:
            return self.label
        return f"l1-{self.capacity_bytes // 1024}KB-{self.associativity}w"

    def cache_config(self) -> CacheConfig:
        """The :class:`~repro.cache.cache.CacheConfig` this spec describes."""
        return CacheConfig.from_capacity(
            capacity_bytes=self.capacity_bytes,
            associativity=self.associativity,
            block_bytes=self.block_bytes,
            name=self.name,
        )

    def to_dict(self) -> Dict:
        """Plain-data form."""
        out: Dict = {
            "capacity_bytes": self.capacity_bytes,
            "associativity": self.associativity,
            "block_bytes": self.block_bytes,
        }
        if self.label:
            out["label"] = self.label
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FilterSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        _reject_unknown_keys(data, ("label", "capacity_bytes", "associativity", "block_bytes"), "filter")
        return cls(**data)


@dataclass(frozen=True)
class CodecSpec:
    """One compressor cell of the grid.

    Attributes:
        kind: Codec kind, one of :data:`CODEC_KINDS`.
        label: Column label in reports; defaults to the kind (or
            ``kind@backend`` for non-default back-ends).
        backend: Byte-level back-end name (``bz2``, ``zlib``/``gz``,
            ``lzma``/``xz``, ``store``); ``vpc`` takes ``bz2`` only, the
            paper's TCgen second stage.
        buffer_addresses: Bytesort buffer for ``unshuffle``/``lossless``/
            ``lossy`` chunks; ``None`` inherits ``scale.small_buffer``.
        interval_length: Lossy interval length; ``None`` inherits the scale.
        threshold: Lossy threshold; ``None`` inherits the scale.
        enable_translation: Lossy byte translation (Figure 4 ablation knob).

    Example:
        >>> CodecSpec(kind="lossless", backend="zlib").name
        'lossless@zlib'
        >>> CodecSpec(kind="lossy").name
        'lossy'
    """

    kind: str
    label: str = ""
    backend: str = "bz2"
    buffer_addresses: Optional[int] = None
    interval_length: Optional[int] = None
    threshold: Optional[float] = None
    enable_translation: bool = True

    def __post_init__(self) -> None:
        if self.kind not in CODEC_KINDS:
            raise ConfigurationError(
                f"unknown codec kind {self.kind!r}; known kinds: {', '.join(CODEC_KINDS)}"
            )
        backend = get_backend(self.backend)  # fail at spec-load time on bad names
        if self.kind == "vpc" and backend.name != "bz2":
            raise ConfigurationError(
                f"codec kind 'vpc' compresses with bz2 only (the paper's TCgen "
                f"second stage), not {self.backend!r}"
            )
        if self.buffer_addresses is not None and self.buffer_addresses <= 0:
            raise ConfigurationError("codec buffer_addresses must be positive")
        if self.interval_length is not None and self.interval_length <= 0:
            raise ConfigurationError("codec interval_length must be positive")

    @property
    def name(self) -> str:
        """The report label (explicit, or derived from kind and back-end)."""
        if self.label:
            return self.label
        if self.backend != "bz2":
            return f"{self.kind}@{self.backend}"
        return self.kind

    def to_dict(self) -> Dict:
        """Plain-data form, omitting inherited (``None``) fields."""
        out: Dict = {"kind": self.kind}
        if self.label:
            out["label"] = self.label
        if self.backend != "bz2":
            out["backend"] = self.backend
        for key in ("buffer_addresses", "interval_length", "threshold"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if not self.enable_translation:
            out["enable_translation"] = False
        return out

    @classmethod
    def from_dict(cls, data) -> "CodecSpec":
        """Build from a mapping or a bare kind string."""
        if isinstance(data, str):
            return cls(kind=data)
        data = dict(data)
        _reject_unknown_keys(
            data,
            ("kind", "label", "backend", "buffer_addresses", "interval_length",
             "threshold", "enable_translation"),
            "codec",
        )
        return cls(**data)

    def resolved_params(self, scale: "EvaluationScale") -> Dict:
        """The result-affecting parameters of this cell, scale-resolved.

        This is the codec part of the unit content hash: only fields the
        codec kind actually consumes are included (a ``raw`` cell's hash
        does not change when the bytesort buffer default changes), scale
        inheritance is applied (an explicit parameter and an inherited one
        of equal value hash identically), and cosmetic fields (``label``)
        are excluded.
        """
        params: Dict = {"kind": self.kind}
        if self.kind != "vpc":  # a vpc cell is always bz2 (see __post_init__)
            # Canonical name, so alias spellings ("gz" vs "zlib", "xz" vs
            # "lzma") of the same back-end share cache entries.
            params["backend"] = get_backend(self.backend).name
        if self.kind in ("unshuffle", "lossless", "lossy"):
            params["buffer_addresses"] = (
                self.buffer_addresses if self.buffer_addresses is not None else scale.small_buffer
            )
        if self.kind == "lossy":
            params["interval_length"] = (
                self.interval_length if self.interval_length is not None else scale.interval_length
            )
            params["threshold"] = self.threshold if self.threshold is not None else scale.threshold
            params["enable_translation"] = self.enable_translation
        return params


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: the grid ``workloads x filters x codecs`` at one scale.

    Attributes:
        name: Sweep name (used in reports and cache metadata).
        workloads: Workload cells (at least one).
        filters: Filter-cache cells; defaults to the paper's L1 geometry.
        codecs: Codec cells (at least one).
        scale: Shared scale knobs inherited by every cell.
        fidelity: When true, lossy cells additionally record the Figure-3
            max miss-ratio error against the exact trace.
    """

    name: str
    workloads: Tuple[WorkloadSpec, ...]
    codecs: Tuple[CodecSpec, ...]
    filters: Tuple[FilterSpec, ...] = (FilterSpec(),)
    scale: EvaluationScale = field(default_factory=EvaluationScale)
    fidelity: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep name must be non-empty")
        if not self.workloads:
            raise ConfigurationError("a sweep needs at least one workload")
        if not self.codecs:
            raise ConfigurationError("a sweep needs at least one codec")
        if not self.filters:
            raise ConfigurationError("a sweep needs at least one filter")
        for collection, what in ((self.workloads, "workload"), (self.filters, "filter"),
                                 (self.codecs, "codec")):
            labels = [cell.name for cell in collection]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(f"duplicate {what} labels in sweep: {sorted(labels)}")

    @property
    def num_units(self) -> int:
        """Number of grid cells the sweep expands into."""
        return len(self.workloads) * len(self.filters) * len(self.codecs)

    def to_dict(self) -> Dict:
        """Plain-data form (the on-disk TOML/JSON schema)."""
        return {
            "name": self.name,
            "workloads": [w.to_dict() for w in self.workloads],
            "filters": [f.to_dict() for f in self.filters],
            "codecs": [c.to_dict() for c in self.codecs],
            "scale": self.scale.to_dict(),
            "fidelity": self.fidelity,
        }


def _reject_unknown_keys(data: Dict, known: Sequence[str], what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {unknown}")


def sweep_spec_from_dict(data: Dict) -> SweepSpec:
    """Build a :class:`SweepSpec` from its plain-data form.

    This is the single schema shared by the TOML and JSON loaders; see the
    module docstring for an example.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"a sweep spec must be a mapping, got {type(data).__name__}")
    data = dict(data)
    _reject_unknown_keys(
        data, ("name", "workloads", "filters", "codecs", "scale", "fidelity"), "sweep"
    )
    try:
        workloads = tuple(WorkloadSpec.from_dict(w) for w in data.get("workloads", ()))
        codecs = tuple(CodecSpec.from_dict(c) for c in data.get("codecs", ()))
        filters_data: Optional[List] = data.get("filters")
        filters = (
            tuple(FilterSpec.from_dict(f) for f in filters_data)
            if filters_data
            else (FilterSpec(),)
        )
        scale = EvaluationScale.from_dict(data.get("scale", {}))
    except TypeError as error:
        raise ConfigurationError(f"malformed sweep spec: {error}") from None
    return SweepSpec(
        name=str(data.get("name", "")),
        workloads=workloads,
        filters=filters,
        codecs=codecs,
        scale=scale,
        fidelity=bool(data.get("fidelity", False)),
    )


def _parse_toml(text: str) -> Dict:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise ConfigurationError(
                "TOML sweep specs need Python >= 3.11 (tomllib) or the 'tomli' "
                "package; use a JSON spec instead"
            ) from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigurationError(f"invalid TOML sweep spec: {error}") from None


def _parse_text(text: str, format: str) -> Dict:
    if format == "toml":
        return _parse_toml(text)
    if format == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid JSON sweep spec: {error}") from None
    raise ConfigurationError(f"unknown sweep spec format {format!r} (use 'toml' or 'json')")


def loads_sweep_spec(text: str, format: str = "toml") -> SweepSpec:
    """Parse a sweep spec from a TOML or JSON string.

    Example:
        >>> spec = loads_sweep_spec(
        ...     '{"name": "s", "workloads": ["429.mcf"], "codecs": ["lossless"]}',
        ...     format="json")
        >>> spec.num_units
        1
    """
    return sweep_spec_from_dict(_parse_text(text, format))


def load_sweep_spec(path) -> SweepSpec:
    """Load a sweep spec file; the format follows the file extension.

    ``.toml`` parses as TOML (Python >= 3.11 or with ``tomli`` installed),
    anything else as JSON.  A spec without a ``name`` key is named after the
    file stem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(f"cannot read sweep spec {path}: {error}") from None
    format = "toml" if path.suffix.lower() == ".toml" else "json"
    data = _parse_text(text, format)
    if isinstance(data, dict):
        data.setdefault("name", path.stem)
    return sweep_spec_from_dict(data)
