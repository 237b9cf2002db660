"""Programmatic experiment runner.

The benchmark modules under ``benchmarks/`` regenerate the paper's tables
and figures through pytest.  This module exposes the same experiments as
plain functions returning structured results, so they can be scripted
(``examples/full_evaluation.py``), embedded in notebooks, or re-run at a
different scale without going through the test runner.

Since the introduction of :mod:`repro.experiments`, the harness is a thin
convenience layer **over the declarative sweep subsystem**: every table
cell is measured by :func:`repro.experiments.codecs.evaluate_codec` on
:class:`~repro.experiments.spec.CodecSpec` cells, which is exactly what a
``repro sweep run`` evaluates — so the hand-driven tables and a spec-driven
sweep agree number for number, by construction.  :meth:`EvaluationHarness.
sweep_spec` returns the equivalent declarative spec for any table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.comparison import LossyFidelityResult, compare_cdc_breakdowns, compare_miss_ratio_surfaces
from repro.analysis.metrics import arithmetic_mean
from repro.analysis.reporting import render_table
from repro.experiments.codecs import evaluate_codec
from repro.experiments.spec import CodecSpec, EvaluationScale, SweepSpec, WorkloadSpec
from repro.traces.filter import filtered_spec_like_trace
from repro.traces.spec_like import SPEC_LIKE_NAMES
from repro.traces.trace import DEFAULT_CHUNK_ADDRESSES, AddressTrace

__all__ = ["EvaluationScale", "EvaluationHarness", "LosslessComparison", "LossyComparison"]


def _table1_codecs(scale: EvaluationScale, include_vpc: bool = True) -> Tuple[CodecSpec, ...]:
    """The Table 1 codec cells, in column order."""
    codecs = [
        CodecSpec(kind="raw", label="bz2"),
        CodecSpec(kind="unshuffle", label="us", buffer_addresses=scale.small_buffer),
    ]
    if include_vpc:
        codecs.append(CodecSpec(kind="vpc", label="tcg"))
    codecs.append(CodecSpec(kind="lossless", label="bs-small", buffer_addresses=scale.small_buffer))
    codecs.append(CodecSpec(kind="lossless", label="bs-big", buffer_addresses=scale.big_buffer))
    return tuple(codecs)


def _table3_codecs(scale: EvaluationScale) -> Tuple[CodecSpec, ...]:
    """The Table 3 codec cells (lossless vs lossy), in column order."""
    return (
        CodecSpec(kind="lossless", label="lossless", buffer_addresses=scale.small_buffer),
        CodecSpec(kind="lossy", label="lossy"),
    )


@dataclass(frozen=True)
class LosslessComparison:
    """Per-trace Table 1 row plus the rendered table."""

    rows: Dict[str, Dict[str, float]]
    means: Dict[str, float]
    text: str


@dataclass(frozen=True)
class LossyComparison:
    """Per-trace Table 3 row plus the rendered table."""

    rows: Dict[str, Dict[str, float]]
    means: Dict[str, float]
    text: str


class EvaluationHarness:
    """Regenerates the paper's experiments programmatically.

    Traces are generated lazily and cached, so running several experiments
    over the same workload set only pays the filtering cost once.  Table
    cells are measured through :func:`repro.experiments.codecs.
    evaluate_codec`, the same code path as a declarative ``repro sweep``.
    """

    def __init__(self, scale: EvaluationScale = EvaluationScale(), workloads: Optional[Sequence[str]] = None) -> None:
        self.scale = scale
        self.workloads = tuple(workloads) if workloads is not None else SPEC_LIKE_NAMES
        self._traces: Dict[str, AddressTrace] = {}

    # -- trace cache ------------------------------------------------------------------
    def trace(self, name: str) -> AddressTrace:
        """The cache-filtered trace of one workload (generated on demand)."""
        if name not in self._traces:
            self._traces[name] = filtered_spec_like_trace(
                name, self.scale.references_per_workload, seed=self.scale.seed
            )
        return self._traces[name]

    def stream_trace(self, name: str, chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES):
        """Stream one workload's cache-filtered trace as address chunks.

        The streaming counterpart of :meth:`trace`: the concatenated chunks
        are byte-identical to ``self.trace(name).addresses``, but the
        filter runs chunk by chunk so downstream consumers (the ATC
        encoder) see chunk-bounded memory.  The result is not
        cached — the point of streaming is not to hold the trace.
        """
        from repro.traces.filter import iter_filtered_spec_like_chunks

        return iter_filtered_spec_like_chunks(
            name,
            self.scale.references_per_workload,
            chunk_addresses=chunk_addresses,
            seed=self.scale.seed,
        )

    def compress_workload(
        self,
        name: str,
        directory,
        mode: str = "c",
        config=None,
        chunk_addresses: int = DEFAULT_CHUNK_ADDRESSES,
    ):
        """Filter one workload and compress it straight into a container.

        Runs the whole paper pipeline — workload generation -> L1 filter ->
        ATC encoder -> on-disk container — as one streaming chain, so the
        filtered trace is never materialised.  Returns the
        :class:`~repro.core.atc.AtcDecoder` of the written container.  The
        container is byte-identical to compressing ``self.trace(name)`` in
        memory with the same mode and configuration.
        """
        from repro.core.atc import compress_stream

        config = config if config is not None else self.scale.lossy_config()
        return compress_stream(
            self.stream_trace(name, chunk_addresses), directory, mode=mode, config=config
        )

    def traces(self, minimum_length: int = 1_000) -> Dict[str, AddressTrace]:
        """All workload traces at least ``minimum_length`` addresses long."""
        result = {}
        for name in self.workloads:
            trace = self.trace(name)
            if len(trace) >= minimum_length:
                result[name] = trace
        return result

    # -- declarative bridge ------------------------------------------------------------
    def sweep_spec(self, table: str = "table1", name: str = "", apply_length_guard: bool = True) -> SweepSpec:
        """The declarative :class:`~repro.experiments.spec.SweepSpec`
        equivalent to one of the harness tables.

        Args:
            table: ``"table1"`` (lossless comparison columns) or
                ``"table3"`` (lossless vs lossy).
            name: Sweep name; defaults to ``harness-<table>``.
            apply_length_guard: Restrict the workload axis to traces long
                enough for the table, exactly like the comparison methods
                do (Table 1 skips traces under 1 000 addresses, Table 3
                traces under two lossy intervals).  This generates the
                filtered traces (cached on the harness); pass ``False`` to
                build the spec without touching traces and keep every
                workload.

        Running the returned spec through
        :class:`~repro.experiments.runner.SweepRunner` reproduces the same
        bits-per-address grid — same rows, same columns, same numbers — as
        the corresponding comparison method.
        """
        from repro.errors import ConfigurationError

        if table == "table1":
            codecs = _table1_codecs(self.scale)
            minimum_length = 1_000
        elif table == "table3":
            codecs = _table3_codecs(self.scale)
            minimum_length = 2 * self.scale.interval_length
        else:
            raise ConfigurationError(f"unknown harness table {table!r} (use 'table1' or 'table3')")
        workloads = tuple(self.traces(minimum_length)) if apply_length_guard else self.workloads
        if not workloads:
            raise ConfigurationError(
                f"no workload trace is long enough for {table} at this scale "
                f"(minimum {minimum_length} filtered addresses)"
            )
        return SweepSpec(
            name=name or f"harness-{table}",
            workloads=tuple(WorkloadSpec(name=w) for w in workloads),
            codecs=codecs,
            scale=self.scale,
        )

    def trace_provider(self):
        """A ``SweepRunner`` trace provider backed by this harness's cache.

        Pass the returned callable as
        :class:`~repro.experiments.runner.SweepRunner`'s ``trace_provider``
        when running a spec built by :meth:`sweep_spec`: cells that use the
        paper's L1 geometry at the harness scale are served from the
        harness's per-workload trace cache instead of regenerating and
        re-filtering the workload.  Any other cell returns ``None`` and the
        runner generates as usual.
        """
        from repro.traces.filter import PAPER_L1_CONFIG

        def provide(workload: WorkloadSpec, filter_spec):
            config = filter_spec.cache_config()
            same_geometry = (
                config.num_sets == PAPER_L1_CONFIG.num_sets
                and config.associativity == PAPER_L1_CONFIG.associativity
                and config.block_bytes == PAPER_L1_CONFIG.block_bytes
            )
            same_scale = (
                workload.references == self.scale.references_per_workload
                and workload.seed == self.scale.seed
            )
            if not (same_geometry and same_scale) or workload.name not in self.workloads:
                return None
            return self.trace(workload.name).addresses

        return provide

    def _comparison_rows(
        self, codecs: Sequence[CodecSpec], minimum_length: int
    ) -> Dict[str, Dict[str, float]]:
        """One bits-per-address row per (long enough) workload trace."""
        rows: Dict[str, Dict[str, float]] = {}
        for name, trace in self.traces(minimum_length).items():
            addresses = trace.addresses
            rows[name] = {
                codec.name: evaluate_codec(codec, addresses, self.scale)["bits_per_address"]
                for codec in codecs
            }
        return rows

    # -- Table 1 -----------------------------------------------------------------------
    def lossless_comparison(self, include_vpc: bool = True) -> LosslessComparison:
        """Table 1: bits per address of the lossless compressors."""
        codecs = _table1_codecs(self.scale, include_vpc)
        columns = [codec.name for codec in codecs]
        rows = self._comparison_rows(codecs, minimum_length=1_000)
        means = {column: arithmetic_mean([row[column] for row in rows.values()]) for column in columns}
        text = render_table("Table 1: lossless bits per address", rows, columns)
        return LosslessComparison(rows=rows, means=means, text=text)

    # -- Table 3 -----------------------------------------------------------------------
    def lossy_comparison(self) -> LossyComparison:
        """Table 3: lossless vs lossy bits per address."""
        codecs = _table3_codecs(self.scale)
        columns = [codec.name for codec in codecs]
        rows = self._comparison_rows(codecs, minimum_length=2 * self.scale.interval_length)
        means = {column: arithmetic_mean([row[column] for row in rows.values()]) for column in columns}
        text = render_table("Table 3: lossless vs lossy bits per address", rows, columns)
        return LossyComparison(rows=rows, means=means, text=text)

    # -- Figure 3 ----------------------------------------------------------------------
    def miss_ratio_fidelity(self, workloads: Optional[Sequence[str]] = None) -> Dict[str, LossyFidelityResult]:
        """Figure 3: exact-vs-lossy miss-ratio surfaces per trace."""
        config = self.scale.lossy_config()
        selected = workloads if workloads is not None else self.workloads
        results = {}
        for name in selected:
            trace = self.trace(name)
            if len(trace) < 2 * self.scale.interval_length:
                continue
            results[name] = compare_miss_ratio_surfaces(
                trace.addresses, set_counts=self.scale.set_counts, config=config, trace_name=name
            )
        return results

    # -- Figure 5 ----------------------------------------------------------------------
    def predictor_fidelity(self, workloads: Optional[Sequence[str]] = None) -> Dict[str, float]:
        """Figure 5: L1 distance between exact and lossy C/DC breakdowns."""
        config = self.scale.lossy_config()
        selected = workloads if workloads is not None else self.workloads
        distances = {}
        for name in selected:
            trace = self.trace(name)
            if len(trace) < 2 * self.scale.interval_length:
                continue
            _, _, distance = compare_cdc_breakdowns(trace.addresses, config=config)
            distances[name] = distance
        return distances

    # -- report ------------------------------------------------------------------------
    def full_report(self, figure_workloads: Optional[Sequence[str]] = None) -> str:
        """Run every experiment and return one markdown-ish text report."""
        sections: List[str] = []
        lossless = self.lossless_comparison()
        sections.append(lossless.text)
        lossy = self.lossy_comparison()
        sections.append(lossy.text)
        fidelity = self.miss_ratio_fidelity(figure_workloads)
        for name, result in fidelity.items():
            sections.append(
                f"Figure 3 [{name}]: max miss-ratio error {result.max_miss_ratio_error:.4f}, "
                f"chunks {result.num_chunks}/{result.num_intervals}, "
                f"lossy {result.bits_per_address:.2f} bits/address"
            )
        predictor = self.predictor_fidelity(figure_workloads)
        for name, distance in predictor.items():
            sections.append(f"Figure 5 [{name}]: C/DC breakdown distance {distance:.4f}")
        return "\n\n".join(sections)
