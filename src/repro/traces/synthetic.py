"""Synthetic memory reference stream generators.

The paper traces 22 SPEC CPU2006 benchmarks with Pin.  Neither SPEC nor Pin
is available here, so this module provides the *substitute substrate*: a set
of parametrised generators producing byte-address reference streams with the
qualitative behaviours the paper's evaluation depends on:

* **streaming / strided** access (410.bwaves-, 433.milc-, 470.lbm-like):
  large arrays swept with unit or constant stride, extremely regular once
  cache-filtered;
* **loop nests** over multi-dimensional arrays (row/column sweeps);
* **random access inside a working set** (429.mcf-, 471.omnetpp-like):
  hard to compress losslessly but statistically stationary, the motivating
  case of Section 5;
* **pointer chasing** over a fixed random permutation (linked-list style);
* **GUPS-style updates** over a huge table (essentially incompressible);
* **stack-like** accesses with geometric depth distribution;
* **phased** workloads that switch between sub-behaviours, exercising the
  chunk reuse and byte-translation machinery (Figures 4 and 5).

Every generator is deterministic given its ``seed`` and returns a NumPy
``uint64`` array of *byte* addresses.  :class:`ReferenceStream` pairs the
data stream with a matching instruction-fetch stream so the L1I/L1D filter
front-end (:mod:`repro.traces.filter`) can reproduce the paper's setup of
instrumenting "all basic blocks and all instructions accessing memory".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.trace import as_address_array, check_chunk_addresses

__all__ = [
    "ReferenceStream",
    "sequential_stream",
    "strided_stream",
    "multi_stream",
    "loop_nest",
    "random_working_set",
    "pointer_chase",
    "gups_updates",
    "stack_accesses",
    "phased_stream",
    "region_mixture",
    "code_stream",
    "make_reference_stream",
]

_U64 = np.uint64

#: Fixed cost of one loop step in :func:`pointer_chase`, in elements of a
#: gather pass over the successor table (~1 us per step against 1-2 ns per
#: element on a 2-vCPU x86 host).
_GATHER_OVERHEAD = 1000


@dataclass(frozen=True)
class ReferenceStream:
    """A combined instruction + data reference stream.

    Attributes:
        addresses: Byte addresses in program order.
        is_instruction: Boolean mask, ``True`` for instruction fetches.
        name: Label of the workload that generated the stream.
    """

    addresses: np.ndarray
    is_instruction: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "addresses", as_address_array(self.addresses))
        mask = np.asarray(self.is_instruction, dtype=bool)
        if mask.shape != self.addresses.shape:
            raise ConfigurationError("is_instruction mask must match addresses length")
        object.__setattr__(self, "is_instruction", mask)

    def __len__(self) -> int:
        return int(self.addresses.size)

    def iter_chunks(self, chunk_addresses: int) -> Iterator["ReferenceStream"]:
        """Yield consecutive fixed-size sub-streams (views, no copies).

        This is the entry of the streaming cache-filter pipeline: filtering
        the yielded chunks in order through one stateful filter produces a
        miss trace byte-identical to filtering the whole stream at once
        (the final chunk may be shorter than ``chunk_addresses``).
        """
        chunk_addresses = check_chunk_addresses(chunk_addresses)
        for start in range(0, len(self), chunk_addresses):
            stop = start + chunk_addresses
            yield ReferenceStream(
                self.addresses[start:stop],
                self.is_instruction[start:stop],
                name=self.name,
            )

    @property
    def data_addresses(self) -> np.ndarray:
        """Byte addresses of data references only."""
        return self.addresses[~self.is_instruction]

    @property
    def instruction_addresses(self) -> np.ndarray:
        """Byte addresses of instruction fetches only."""
        return self.addresses[self.is_instruction]


def _check_positive(name: str, value: int) -> int:
    value = int(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# data-access primitives
# ---------------------------------------------------------------------------
def sequential_stream(length: int, base: int = 0x1000_0000, stride: int = 8) -> np.ndarray:
    """Unit/constant-stride sweep: address ``k`` is ``base + k * stride``."""
    length = _check_positive("length", length)
    if stride <= 0:
        raise ConfigurationError("stride must be positive")
    return (np.uint64(base) + np.arange(length, dtype=np.uint64) * np.uint64(stride)).astype(_U64)


def strided_stream(
    length: int,
    base: int = 0x2000_0000,
    stride: int = 256,
    wrap_bytes: Optional[int] = None,
) -> np.ndarray:
    """Constant-stride sweep that optionally wraps around a region.

    With ``wrap_bytes`` set, the stream repeatedly sweeps the region
    ``[base, base + wrap_bytes)`` with the given stride, which after cache
    filtering produces the periodic miss pattern typical of blocked numeric
    kernels.
    """
    length = _check_positive("length", length)
    offsets = np.arange(length, dtype=np.uint64) * np.uint64(stride)
    if wrap_bytes is not None:
        offsets = offsets % np.uint64(wrap_bytes)
    return (np.uint64(base) + offsets).astype(_U64)


def multi_stream(
    length: int,
    bases: Sequence[int],
    stride: int = 8,
) -> np.ndarray:
    """Interleave several concurrent sequential streams (A[i]=B[i]+C[i] style).

    Reference ``k`` touches stream ``k % len(bases)`` at element
    ``k // len(bases)``, matching the access pattern of a vector kernel that
    reads/writes several arrays in lock step.
    """
    length = _check_positive("length", length)
    if not bases:
        raise ConfigurationError("multi_stream needs at least one base")
    bases_array = as_address_array(list(bases))
    lanes = len(bases)
    k = np.arange(length, dtype=np.uint64)
    lane = (k % np.uint64(lanes)).astype(np.int64)
    element = k // np.uint64(lanes)
    return (bases_array[lane] + element * np.uint64(stride)).astype(_U64)


def loop_nest(
    length: int,
    base: int = 0x3000_0000,
    rows: int = 256,
    cols: int = 256,
    element_bytes: int = 8,
    column_major: bool = False,
) -> np.ndarray:
    """Repeated traversal of a ``rows x cols`` matrix.

    ``column_major=False`` walks the matrix row by row (stride-1, very
    regular); ``column_major=True`` walks it column by column (large
    stride), the classic poor-locality loop nest.
    The traversal repeats until ``length`` references are produced.
    """
    length = _check_positive("length", length)
    rows = _check_positive("rows", rows)
    cols = _check_positive("cols", cols)
    elements = np.arange(rows * cols, dtype=np.uint64).reshape(rows, cols)
    if column_major:
        elements = elements.T
    offsets = elements.ravel() * np.uint64(element_bytes)
    repeats = -(-length // offsets.size)  # ceil division
    tiled = np.tile(offsets, repeats)[:length]
    return (np.uint64(base) + tiled).astype(_U64)


def random_working_set(
    length: int,
    working_set_blocks: int,
    base: int = 0x4000_0000,
    block_bytes: int = 64,
    seed: int = 0,
) -> np.ndarray:
    """Uniformly random accesses inside a fixed working set.

    This is the paper's motivating example for the myopic interval problem
    (Section 5): "a loop accessing an array in a completely random fashion";
    the addresses look random but the miss ratio of a C-entry cache is close
    to ``1 - C/N``.
    """
    length = _check_positive("length", length)
    working_set_blocks = _check_positive("working_set_blocks", working_set_blocks)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, working_set_blocks, size=length, dtype=np.uint64)
    return (np.uint64(base) + picks * np.uint64(block_bytes)).astype(_U64)


def pointer_chase(
    length: int,
    num_nodes: int,
    base: int = 0x5000_0000,
    node_bytes: int = 64,
    seed: int = 0,
) -> np.ndarray:
    """Traversal of a random circular linked list of ``num_nodes`` nodes.

    The successor of each node is a fixed random permutation, so the access
    sequence is deterministic but has essentially no spatial locality,
    mimicking mcf/omnetpp-style pointer chasing.
    """
    length = _check_positive("length", length)
    num_nodes = _check_positive("num_nodes", num_nodes)
    rng = np.random.default_rng(seed)
    # Walk from node 0 in blocks: while ``jump`` is the successor applied
    # ``block`` times, one gather extends the walk by ``block`` nodes.
    # Squaring ``jump`` (one pass over every node) doubles the block, and
    # pays while it saves more per-gather overhead than the pass costs.
    jump = rng.permutation(num_nodes)
    nodes = np.empty(length, dtype=np.int64)
    nodes[0] = 0
    block = filled = 1
    while filled < length:
        step = min(block, length - filled)
        nodes[filled : filled + step] = jump[nodes[filled - block : filled - block + step]]
        filled += step
        if filled == 2 * block and 2 * block * num_nodes < (length - filled) * _GATHER_OVERHEAD:
            jump = jump[jump]
            block *= 2
    return (np.uint64(base) + nodes.astype(np.uint64) * np.uint64(node_bytes)).astype(_U64)


def gups_updates(
    length: int,
    table_bytes: int = 1 << 26,
    base: int = 0x6000_0000,
    seed: int = 0,
) -> np.ndarray:
    """GUPS-style random updates over a large table (nearly incompressible)."""
    length = _check_positive("length", length)
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, table_bytes // 8, size=length, dtype=np.uint64) * np.uint64(8)
    return (np.uint64(base) + offsets).astype(_U64)


def stack_accesses(
    length: int,
    base: int = 0x7FFF_0000,
    max_depth_bytes: int = 16384,
    seed: int = 0,
) -> np.ndarray:
    """Stack-like accesses: offsets drawn from a geometric depth distribution.

    Most references stay near the top of the stack (hot frames), a tail goes
    deeper — a simple model of call-heavy integer codes.
    """
    length = _check_positive("length", length)
    rng = np.random.default_rng(seed)
    depth = rng.geometric(p=0.02, size=length) * 8
    depth = np.minimum(depth, max_depth_bytes).astype(np.uint64)
    return (np.uint64(base) - depth).astype(_U64)


def phased_stream(segments: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate segments produced by other generators into a phased stream."""
    if not segments:
        raise ConfigurationError("phased_stream needs at least one segment")
    return np.concatenate([as_address_array(segment) for segment in segments]).astype(_U64)


def region_mixture(
    length: int,
    regions: Sequence[Tuple[int, int]],
    weights: Optional[Sequence[float]] = None,
    block_bytes: int = 64,
    seed: int = 0,
) -> np.ndarray:
    """Random accesses over several regions with given selection weights.

    Args:
        length: Number of references.
        regions: Sequence of ``(base, size_bytes)`` pairs.
        weights: Probability of touching each region (uniform by default).
        block_bytes: Access granularity inside a region.
        seed: RNG seed.
    """
    length = _check_positive("length", length)
    if not regions:
        raise ConfigurationError("region_mixture needs at least one region")
    rng = np.random.default_rng(seed)
    if weights is None:
        probabilities = np.full(len(regions), 1.0 / len(regions))
    else:
        weight_array = np.asarray(weights, dtype=float)
        if weight_array.size != len(regions) or weight_array.sum() <= 0:
            raise ConfigurationError("weights must match regions and sum to a positive value")
        probabilities = weight_array / weight_array.sum()
    region_ids = rng.choice(len(regions), size=length, p=probabilities)
    addresses = np.empty(length, dtype=np.uint64)
    for region_id, (region_base, region_size) in enumerate(regions):
        mask = region_ids == region_id
        count = int(mask.sum())
        if count == 0:
            continue
        blocks = rng.integers(0, max(region_size // block_bytes, 1), size=count, dtype=np.uint64)
        addresses[mask] = np.uint64(region_base) + blocks * np.uint64(block_bytes)
    return addresses


# ---------------------------------------------------------------------------
# instruction-fetch stream and combination
# ---------------------------------------------------------------------------
def code_stream(
    length: int,
    code_base: int = 0x0040_0000,
    hot_code_bytes: int = 8192,
    cold_code_bytes: int = 262144,
    cold_fraction: float = 0.02,
    basic_block_bytes: int = 32,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic instruction-fetch stream.

    Fetches walk sequentially through basic blocks whose start addresses are
    mostly drawn from a small hot region (loop bodies) with an occasional
    jump into a larger cold region (rarely executed code), a minimal model of
    real instruction streams that keeps the L1I filter busy without
    dominating the filtered trace.
    """
    length = _check_positive("length", length)
    rng = np.random.default_rng(seed)
    instructions_per_block = max(basic_block_bytes // 4, 1)
    num_blocks = -(-length // instructions_per_block)
    is_cold = rng.random(num_blocks) < cold_fraction
    hot_starts = rng.integers(0, max(hot_code_bytes // basic_block_bytes, 1), size=num_blocks)
    cold_starts = rng.integers(0, max(cold_code_bytes // basic_block_bytes, 1), size=num_blocks)
    block_index = np.where(is_cold, cold_starts + hot_code_bytes // basic_block_bytes, hot_starts)
    starts = np.uint64(code_base) + block_index.astype(np.uint64) * np.uint64(basic_block_bytes)
    fetch_offsets = (np.arange(instructions_per_block, dtype=np.uint64) * np.uint64(4))
    addresses = (starts[:, None] + fetch_offsets[None, :]).reshape(-1)[:length]
    return addresses.astype(_U64)


def make_reference_stream(
    data_addresses: np.ndarray,
    name: str = "",
    instruction_ratio: float = 1.0,
    code_kwargs: Optional[dict] = None,
    seed: int = 0,
) -> ReferenceStream:
    """Interleave a data stream with a synthetic instruction stream.

    Args:
        data_addresses: Byte addresses of the data references.
        name: Workload label.
        instruction_ratio: Number of instruction fetches per data reference
            (1.0 reproduces the common ~1 memory access per 2-3 instructions
            rule of thumb without bloating the stream).
        code_kwargs: Extra arguments forwarded to :func:`code_stream`.
        seed: RNG seed for the instruction stream.
    """
    data_addresses = as_address_array(data_addresses)
    num_data = int(data_addresses.size)
    num_code = int(round(num_data * instruction_ratio))
    kwargs = dict(code_kwargs or {})
    kwargs.setdefault("seed", seed)
    code_addresses = code_stream(max(num_code, 1), **kwargs)[:num_code]
    total = num_data + num_code
    addresses = np.empty(total, dtype=np.uint64)
    is_instruction = np.zeros(total, dtype=bool)
    if num_code == 0:
        addresses[:] = data_addresses
        return ReferenceStream(addresses, is_instruction, name=name)
    # Interleave proportionally: place instruction fetches at evenly spaced
    # positions so the two streams mix like a real fetch/execute interleaving.
    positions = np.linspace(0, total - 1, num_code).astype(np.int64)
    is_instruction[positions] = True
    # Positions that collided in the truncation fall back to the first free
    # slots.
    shortfall = num_code - int(np.count_nonzero(is_instruction))
    if shortfall:
        is_instruction[np.flatnonzero(~is_instruction)[:shortfall]] = True
    addresses[is_instruction] = code_addresses
    addresses[~is_instruction] = data_addresses
    return ReferenceStream(addresses, is_instruction, name=name)
