"""SPEC-CPU2006-like synthetic workload suite.

The paper evaluates on 22 SPEC CPU2006 benchmarks traced with Pin.  SPEC and
Pin are unavailable here, so this module defines 22 *named analogues*, one
per benchmark in Table 1, whose data-reference behaviour mimics the publicly
known memory characteristics of the original program (streaming FP codes,
pointer-chasing integer codes, phase-churning compilers, ...).  The names
deliberately reuse the SPEC identifiers ("410.bwaves", ...) so that
benchmark tables produced by this reproduction can be read side by side with
the paper's tables, but the streams are synthetic: see DESIGN.md Section 2
for the substitution rationale.

The suite spans the axes that matter to ATC:

* compressibility of the *filtered* trace (regular streaming vs random);
* phase stability (stationary vs churning), which drives the lossy
  compression ratio in Table 3;
* working-set size relative to the filter cache, which controls how many
  addresses survive filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traces import synthetic
from repro.traces.synthetic import ReferenceStream, make_reference_stream

__all__ = [
    "SpecLikeWorkload",
    "SPEC_LIKE_NAMES",
    "spec_like_suite",
    "get_workload",
    "generate_reference_stream",
]

_DataBuilder = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class SpecLikeWorkload:
    """One named synthetic analogue of a SPEC CPU2006 benchmark.

    Attributes:
        name: SPEC-style identifier, e.g. ``"410.bwaves"``.
        description: One-line description of the modelled behaviour.
        build_data: Function ``(length, seed) -> byte addresses``.
        stability: Qualitative phase stability ("stable", "mixed",
            "unstable"); used by tests and reports, not by the generator.
    """

    name: str
    description: str
    build_data: _DataBuilder
    stability: str = "stable"

    def reference_stream(self, length: int, seed: int = 0) -> ReferenceStream:
        """Generate the combined instruction+data reference stream."""
        data = self.build_data(length, seed)
        return make_reference_stream(data, name=self.name, seed=seed + 1)

    def iter_chunks(self, length: int, chunk_addresses: int, seed: int = 0):
        """Yield the workload's reference stream as fixed-size chunks.

        The chunks are views of the stream :meth:`reference_stream` would
        return for the same ``length``/``seed``, so consuming them through
        any streaming stage is byte-identical to the in-memory path.  The
        synthetic generators are array-based, so generation itself
        materialises the stream once; the point of this entry is that
        everything *downstream* (filter, encoder, container) runs with
        chunk-bounded memory — for truly bounded sources, stream a raw
        trace file through :func:`repro.traces.trace.iter_raw_chunks`.
        """
        return self.reference_stream(length, seed=seed).iter_chunks(chunk_addresses)


def _phases(length: int, builders: List[Callable[[int, int], np.ndarray]], seed: int) -> np.ndarray:
    """Split ``length`` across builders and concatenate their outputs."""
    per_phase = max(length // len(builders), 1)
    segments = []
    produced = 0
    for index, builder in enumerate(builders):
        remaining = length - produced
        want = min(per_phase, remaining) if index < len(builders) - 1 else remaining
        if want <= 0:
            break
        segments.append(builder(want, seed + index))
        produced += want
    return synthetic.phased_stream(segments)


def _alternating(length: int, builders: List[Callable[[int, int], np.ndarray]], slices: int, seed: int) -> np.ndarray:
    """Cycle through builders ``slices`` times (periodic phase behaviour)."""
    cycle = [builders[i % len(builders)] for i in range(slices)]
    return _phases(length, cycle, seed)


# ---------------------------------------------------------------------------
# per-benchmark data-stream builders
# ---------------------------------------------------------------------------
def _perlbench(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.stack_accesses(n, seed=s),
            lambda n, s: synthetic.pointer_chase(n, num_nodes=3000, seed=s),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=4096, seed=s),
        ],
        slices=9,
        seed=seed,
    )


def _bzip2(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.sequential_stream(n, base=0x1200_0000, stride=64),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=12000, seed=s),
        ],
        slices=8,
        seed=seed,
    )


def _gcc(length: int, seed: int) -> np.ndarray:
    # Phase-churning: every phase touches a new heap region with a different
    # mixture, so intervals rarely resemble previously stored chunks.
    builders = []
    for phase in range(12):
        base = 0x2000_0000 + phase * 0x0200_0000

        def make(phase_base):
            def build(n, s):
                return synthetic.region_mixture(
                    n,
                    regions=[(phase_base, 1 << 21), (phase_base + (1 << 22), 1 << 19)],
                    weights=[0.7, 0.3],
                    seed=s,
                )

            return build

        builders.append(make(base))
    return _phases(length, builders, seed)


def _bwaves(length: int, seed: int) -> np.ndarray:
    return synthetic.multi_stream(
        length, bases=[0x4000_0000, 0x4800_0000, 0x5000_0000, 0x5800_0000], stride=8
    )


def _mcf(length: int, seed: int) -> np.ndarray:
    return synthetic.pointer_chase(length, num_nodes=200_000, node_bytes=64, seed=seed)


def _milc(length: int, seed: int) -> np.ndarray:
    return synthetic.strided_stream(length, base=0x6000_0000, stride=64, wrap_bytes=1 << 28)


def _zeusmp(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.loop_nest(n, rows=384, cols=384, column_major=False),
            lambda n, s: synthetic.loop_nest(n, rows=384, cols=384, column_major=True),
        ],
        slices=6,
        seed=seed,
    )


def _gromacs(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=6000, seed=s),
            lambda n, s: synthetic.sequential_stream(n, base=0x7000_0000, stride=24),
        ],
        slices=10,
        seed=seed,
    )


def _namd(length: int, seed: int) -> np.ndarray:
    return synthetic.region_mixture(
        length,
        regions=[(0x7400_0000, 1 << 22), (0x7800_0000, 1 << 20), (0x7C00_0000, 1 << 18)],
        weights=[0.5, 0.3, 0.2],
        seed=seed,
    )


def _gobmk(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.stack_accesses(n, seed=s),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=8000, seed=s),
        ],
        slices=8,
        seed=seed,
    )


def _dealII(length: int, seed: int) -> np.ndarray:
    builders = []
    for phase in range(10):
        base = 0x8000_0000 + phase * 0x0100_0000

        def make(phase_base, phase_id):
            def build(n, s):
                return synthetic.region_mixture(
                    n,
                    regions=[(phase_base, 1 << 20), (0x9000_0000, 1 << 23)],
                    weights=[0.6, 0.4],
                    seed=s + phase_id,
                )

            return build

        builders.append(make(base, phase))
    return _phases(length, builders, seed)


def _soplex(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.strided_stream(n, base=0x9800_0000, stride=512, wrap_bytes=1 << 24),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=30_000, seed=s),
        ],
        slices=6,
        seed=seed,
    )


def _povray(length: int, seed: int) -> np.ndarray:
    # Tiny working set: almost everything hits in the filter cache, so the
    # filtered trace is short, matching povray's near-zero BPA rows.
    return synthetic.random_working_set(length, working_set_blocks=300, seed=seed)


def _hmmer(length: int, seed: int) -> np.ndarray:
    return synthetic.strided_stream(length, base=0xA000_0000, stride=16, wrap_bytes=1 << 20)


def _sjeng(length: int, seed: int) -> np.ndarray:
    return synthetic.random_working_set(length, working_set_blocks=250_000, seed=seed)


def _libquantum(length: int, seed: int) -> np.ndarray:
    return synthetic.strided_stream(length, base=0xB000_0000, stride=16, wrap_bytes=1 << 26)


def _h264ref(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.loop_nest(n, base=0xB800_0000, rows=128, cols=128),
            lambda n, s: synthetic.sequential_stream(n, base=0xBC00_0000, stride=32),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=4000, base=0xBE00_0000, seed=s),
        ],
        slices=9,
        seed=seed,
    )


def _lbm(length: int, seed: int) -> np.ndarray:
    # Two disjoint lattices touched in alternating sweeps: the behaviour the
    # byte-translation mechanism needs (Figure 4), since later phases touch
    # address regions not seen in the stored chunks.
    builders = []
    for phase in range(8):
        base = 0xC000_0000 + phase * 0x0400_0000

        def make(phase_base):
            def build(n, s):
                return synthetic.multi_stream(n, bases=[phase_base, phase_base + 0x0200_0000], stride=8)

            return build

        builders.append(make(base))
    return _phases(length, builders, seed)


def _omnetpp(length: int, seed: int) -> np.ndarray:
    return synthetic.pointer_chase(length, num_nodes=120_000, node_bytes=128, seed=seed)


def _astar(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.pointer_chase(n, num_nodes=60_000, seed=s),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=50_000, base=0xD000_0000, seed=s),
        ],
        slices=6,
        seed=seed,
    )


def _sphinx3(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.sequential_stream(n, base=0xD800_0000, stride=8),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=20_000, base=0xDC00_0000, seed=s),
        ],
        slices=10,
        seed=seed,
    )


def _xalancbmk(length: int, seed: int) -> np.ndarray:
    return _alternating(
        length,
        [
            lambda n, s: synthetic.pointer_chase(n, num_nodes=40_000, node_bytes=96, seed=s),
            lambda n, s: synthetic.stack_accesses(n, seed=s),
            lambda n, s: synthetic.random_working_set(n, working_set_blocks=15_000, base=0xE000_0000, seed=s),
        ],
        slices=9,
        seed=seed,
    )


_SUITE_SPEC: List[Tuple[str, str, _DataBuilder, str]] = [
    ("400.perlbench", "interpreter: stack + pointer chasing + hash tables", _perlbench, "mixed"),
    ("401.bzip2", "block sorting: sequential sweeps + random working set", _bzip2, "mixed"),
    ("403.gcc", "compiler: phase-churning heap regions, irregular", _gcc, "unstable"),
    ("410.bwaves", "FP streaming over four concurrent arrays", _bwaves, "stable"),
    ("429.mcf", "network simplex: pointer chasing over a large graph", _mcf, "stable"),
    ("433.milc", "lattice QCD: long unit-stride sweeps", _milc, "stable"),
    ("434.zeusmp", "CFD loop nests, alternating row/column sweeps", _zeusmp, "stable"),
    ("435.gromacs", "MD: particle working set + neighbour streaming", _gromacs, "mixed"),
    ("444.namd", "MD: mixture of particle regions", _namd, "stable"),
    ("445.gobmk", "game tree search: stack + board working set", _gobmk, "mixed"),
    ("447.dealII", "FEM: sparse, phase-churning regions", _dealII, "unstable"),
    ("450.soplex", "LP solver: strided sparse matrix + random columns", _soplex, "mixed"),
    ("453.povray", "ray tracing: tiny cache-resident working set", _povray, "stable"),
    ("456.hmmer", "HMM search: small-table streaming", _hmmer, "stable"),
    ("458.sjeng", "chess: large hash table, random probes", _sjeng, "stable"),
    ("462.libquantum", "quantum simulation: pure streaming", _libquantum, "stable"),
    ("464.h264ref", "video encode: blocked loop nests + motion search", _h264ref, "mixed"),
    ("470.lbm", "lattice Boltzmann: alternating sweeps over disjoint lattices", _lbm, "stable"),
    ("471.omnetpp", "discrete event simulation: heap pointer chasing", _omnetpp, "stable"),
    ("473.astar", "path finding: pointer chasing + open-list working set", _astar, "mixed"),
    ("482.sphinx3", "speech: model streaming + random lookups", _sphinx3, "mixed"),
    ("483.xalancbmk", "XSLT: DOM pointer chasing + stack + tables", _xalancbmk, "unstable"),
]

#: Names of the 22 workloads, in Table 1 order.
SPEC_LIKE_NAMES: Tuple[str, ...] = tuple(name for name, _, _, _ in _SUITE_SPEC)

_WORKLOADS: Dict[str, SpecLikeWorkload] = {
    name: SpecLikeWorkload(name=name, description=description, build_data=builder, stability=stability)
    for name, description, builder, stability in _SUITE_SPEC
}


def spec_like_suite() -> List[SpecLikeWorkload]:
    """Return all 22 workloads in Table 1 order."""
    return [_WORKLOADS[name] for name in SPEC_LIKE_NAMES]


def get_workload(name: str) -> SpecLikeWorkload:
    """Look up one workload by its SPEC-style name (or its numeric prefix).

    Both ``"429.mcf"`` and ``"429"`` resolve to the mcf-like workload, which
    mirrors the paper's habit of abbreviating trace names to their number.
    Names not in the 22-benchmark suite fall back to the workload zoo
    (:mod:`repro.traces.zoo`), so mixes and kernel scenarios run everywhere
    a spec-like name does — sweeps, the harness, ``repro bench``.

    Example:
        >>> get_workload("429").name
        '429.mcf'
        >>> len(get_workload("433.milc").reference_stream(1000))  # instr + data refs
        2000
        >>> get_workload("stream.copy").name                     # zoo fallback
        'stream.copy'
    """
    if name in _WORKLOADS:
        return _WORKLOADS[name]
    for full_name, workload in _WORKLOADS.items():
        if full_name.split(".")[0] == name:
            return workload
    # Deferred import: the zoo builds on this module, so importing it at
    # module scope would be circular.
    from repro.traces.zoo import ZOO_NAMES, find_zoo_workload

    zoo_workload = find_zoo_workload(name)
    if zoo_workload is not None:
        return zoo_workload
    raise ConfigurationError(
        f"unknown workload {name!r} (spec-like: {list(SPEC_LIKE_NAMES)}; zoo: {list(ZOO_NAMES)})"
    )


def generate_reference_stream(name: str, length: int, seed: int = 0) -> ReferenceStream:
    """Generate the instruction+data reference stream for one workload."""
    return get_workload(name).reference_stream(length, seed=seed)
