"""Array-native cache-simulation kernel: one LRU stack engine.

The cache filter is the pipeline's dominant stage — every reference the
paper compresses first passes through the L1 simulation — and the serial
simulators pay one Python iteration per reference.  This module replaces
that with a *set-parallel stack kernel* that executes whole batches as
NumPy array operations:

1. **Sort by set.**  Accesses to different cache sets never interact, so
   the batch is stably sorted by a caller-supplied *row* index (one row
   per ``(cache lane, set)`` pair; independent caches of one
   associativity — e.g. the filter's L1I and L1D — fuse into one row
   space and simulate in a single call).
2. **Collapse repeat runs.**  A reference equal to the immediately
   preceding reference of the same row is a guaranteed depth-1 hit and
   leaves the recency stack untouched, so consecutive duplicates (the
   bulk of instruction streams) are resolved without simulating them.
3. **March rows as segments.**  Every row is cut into segments of
   :data:`MARCH_SEGMENT_STEPS` collapsed references, one column each of a
   time-major step matrix; one vector step per time index advances every
   segment's ways-major recency stack at once (an equality scan yields
   the match depth, a masked shift the move-to-front).  Pass 1 marches
   each segment from an empty stack to its *summary* (last ``ways``
   distinct blocks, MRU first).  An LRU stack is a pure function of the
   reference history (Mattson et al., 1970), so a segment's true starting
   stack — its *seed* — is the associative merge of the earlier summaries
   and the carried-in stack; a doubling (Hillis–Steele) scan finds every
   seed in O(log segments) vectorised rounds, however skewed a row is.
   Pass 2 marches each segment from its seed and records hits and depths:
   ``2 × MARCH_SEGMENT_STEPS`` Python-level steps per batch.
4. **Sentinels.**  Empty stack slots and segment padding hold a per-row
   value no block of the row takes: the row's set index with bit 0
   flipped, or — for a maskless single-set geometry, whose blocks share
   no set bits — the smallest integer absent from the batch and the
   carried-in stacks.  The result is bit-identical to the serial
   simulators by construction and by the equivalence suite in
   ``tests/cache/test_kernels.py``.

Because a reference hits an ``A``-way LRU set iff its per-set stack
distance is at most ``A`` (Mattson's inclusion property), the same pass
yields the hit mask for any associativity, the exact capped stack-distance
of every reference (one pass gives the whole miss-ratio curve, consumed by
:class:`repro.cache.stackdist.LruStackSimulator`), and the miss stream
the cache filter emits.

State crosses the kernel boundary as arrays.  A caller holds a
``(rows, ways)`` ``uint64`` block matrix, each row most recently used
first, plus a per-row occupancy; the kernel gathers the touched rows as
its seeds and hands back the same layout for exactly those rows; the
stacks are the whole LRU state.  Callers scatter the rows back into
their matrices and carry them into the next batch, which is what makes
chunked streaming byte-identical to one-shot simulation without any
per-set Python work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["KernelBatchResult", "row_dtype", "simulate_batch"]

#: LRU rows are cut into segments of this many collapsed references; both
#: passes of the segment march take this many steps per batch.
MARCH_SEGMENT_STEPS = 32


def row_dtype(row_count: int) -> type:
    """The narrowest row-index type for ``row_count`` rows: NumPy's stable
    sort is a radix sort, one pass per byte, for 8- and 16-bit integers
    (the paper's filter pair is 256 rows, one byte)."""
    return np.uint8 if row_count <= 1 << 8 else np.uint16 if row_count <= 1 << 16 else np.int32


@dataclass
class KernelBatchResult:
    """Outcome of one :func:`simulate_batch` call.

    Attributes:
        hits: Boolean hit mask, aligned with the input references.
        depths: Per-reference LRU stack depth (1-based), ``0`` when the
            block was beyond the tracked ``ways`` (a cold or deep miss).
            ``None`` unless depths were requested.
        rows: The touched row ids, ascending; the two state fields
            below have one row per entry, in this order.
        stacks: ``(len(rows), ways)`` ``uint64`` recency stacks after the
            batch, most recently used first; only the first
            ``occupancy[i]`` entries of row ``i`` are meaningful.
        occupancy: Resident blocks per touched row.
    """

    hits: np.ndarray
    depths: Optional[np.ndarray]
    rows: np.ndarray
    stacks: np.ndarray
    occupancy: np.ndarray


def simulate_batch(
    blocks: np.ndarray,
    rows: np.ndarray,
    set_mask: int,
    ways: int,
    stacks: Optional[np.ndarray] = None,
    occupancy: Optional[np.ndarray] = None,
    want_depths: bool = False,
) -> KernelBatchResult:
    """Simulate one batch of references against per-row LRU stacks.

    Args:
        blocks: ``uint64`` block addresses, in access order.
        rows: Row index per reference (``lane * num_sets + set``); all
            references of a row must share their set bits, and with a
            nonzero ``set_mask`` every lane must have at least two sets,
            which is what makes a padding sentinel constructible.
        set_mask: The per-lane set-index mask (``num_sets - 1``); ``0``
            for a single-set geometry.
        ways: Associativity of every row.
        stacks: Recency state carried in from earlier batches, a
            ``(rows, columns)`` ``uint64`` matrix indexed by row id, each
            row most recently used first.  Only the rows present in this
            batch are read.
        occupancy: Valid entries per row of ``stacks`` (required with it;
            no row may hold more than ``ways``).
        want_depths: Also return per-reference stack depths.

    Returns:
        A :class:`KernelBatchResult`; see its attributes for layout.

    Example:
        >>> import numpy as np
        >>> blocks = np.array([8, 9, 8, 17, 9], dtype=np.uint64)
        >>> result = simulate_batch(blocks, (blocks & np.uint64(7)).astype(np.int64),
        ...                         set_mask=7, ways=2)
        >>> result.hits.tolist()            # 8 and 9 hit on reuse, 17 is cold
        [False, False, True, False, True]
        >>> result.rows.tolist(), result.occupancy.tolist()   # sets 0 and 1
        ([0, 1], [1, 2])
        >>> result.stacks[1].tolist()           # MRU first
        [9, 17]
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
    rows = np.asarray(rows)
    if blocks.shape != rows.shape or blocks.ndim != 1:
        raise ConfigurationError("blocks and rows must be 1-D arrays of equal length")
    if (stacks is None) != (occupancy is None):
        raise ConfigurationError("stacks and occupancy must be given together")
    width = int(ways)
    if width < 1:
        raise ConfigurationError(f"ways must be >= 1, got {width}")
    if rows.dtype not in (np.uint8, np.uint16):
        rows = rows.astype(row_dtype(int(rows.max()) + 1 if rows.size else 0))
    count = int(blocks.size)
    if count == 0:
        return KernelBatchResult(
            np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64) if want_depths else None,
            np.zeros(0, dtype=np.int64), np.zeros((0, width), dtype=np.uint64),
            np.zeros(0, dtype=np.int64),
        )

    order = np.argsort(rows, kind="stable")
    sorted_blocks = blocks[order]
    sorted_rows = rows[order]
    new_row = np.empty(count, dtype=bool)
    new_row[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=new_row[1:])
    bounds = np.flatnonzero(new_row)
    row_ids = sorted_rows[bounds]
    groups = int(bounds.size)

    # -- collapse consecutive duplicate references (guaranteed depth-1 hits)
    dup = np.zeros(count, dtype=bool)
    dup[1:] = ~new_row[1:] & (sorted_blocks[1:] == sorted_blocks[:-1])
    keep = np.flatnonzero(~dup)
    collapsed = int(keep.size)
    cblocks = sorted_blocks[keep]
    cbounds = np.flatnonzero(new_row[keep])
    # -- seed each touched row from the carried-in state
    held = np.zeros(groups, dtype=np.int64)
    carried = None
    if stacks is not None:
        columns = min(width, int(stacks.shape[1]))
        held = np.asarray(occupancy, dtype=np.int64)[row_ids]
        carried = stacks[row_ids, :columns]
    sentinel = _sentinels(cblocks, cbounds, set_mask, carried, held)
    seed = np.empty((groups, width), dtype=np.uint64)
    seed[:] = sentinel[:, None]
    if carried is not None:
        np.copyto(seed[:, :columns], carried, where=np.arange(columns) < held[:, None])
    batch = _Rows(cblocks, np.diff(np.append(cbounds, collapsed)), row_ids, sentinel, seed, held)

    hits_c = np.empty(collapsed, dtype=bool)
    depths_c = np.empty(collapsed, dtype=np.int64) if want_depths else None
    final = _march_segments(batch, width, hits_c, depths_c)
    final_held = (final != sentinel[:, None]).sum(axis=1)

    hits_sorted = np.ones(count, dtype=bool)
    hits_sorted[keep] = hits_c
    hits = np.empty(count, dtype=bool)
    hits[order] = hits_sorted
    depths = None
    if want_depths:
        depths_sorted = np.ones(count, dtype=np.int64)
        depths_sorted[keep] = depths_c
        depths = np.empty(count, dtype=np.int64)
        depths[order] = depths_sorted
    return KernelBatchResult(hits, depths, row_ids.astype(np.int64), final, final_held)


def _sentinels(cblocks, cbounds, set_mask: int, carried, held) -> np.ndarray:
    """Per-row-group padding value that no block of the row takes.

    With set bits, the row's set index with bit 0 flipped differs from
    every block of the row (and of its carried stack).  A maskless
    single-set geometry has no set bits, so every row gets the smallest
    integer absent from the batch and from the valid carried entries.
    """
    if set_mask != 0:
        return (cblocks[cbounds] & np.uint64(set_mask)) ^ np.uint64(1)
    values = cblocks
    if carried is not None:
        values = np.concatenate((values, carried[np.arange(carried.shape[1]) < held[:, None]]))
    size = int(values.size)
    present = np.zeros(size + 1, dtype=bool)
    present[values[values <= np.uint64(size)].astype(np.int64)] = True
    return np.full(int(cbounds.size), int(np.argmin(present)), dtype=np.uint64)


class _Rows(NamedTuple):
    """A collapsed batch sorted by row.

    Row group ``g`` (row id ``ids[g]``) owns the next ``counts[g]``
    collapsed references of ``blocks``; ``sentinel[g]`` is a
    value no block of the row (nor of its carried stack) takes, and
    ``seed[g]`` is the row's carried-in stack, its first
    ``held[g]`` entries valid and the rest ``sentinel[g]``.
    """

    blocks: np.ndarray
    counts: np.ndarray
    ids: np.ndarray
    sentinel: np.ndarray
    seed: np.ndarray
    held: np.ndarray


class _Packed(NamedTuple):
    """Rows cut into segments and packed into a time-major step matrix.

    Each segment is one column of ``matrix`` (``(steps, columns)``), a
    row's segments are adjacent columns, and only a row's first segment
    may be short.  It is padded at its front with references to the
    column's most recently used block, a no-op under LRU; pads start as
    the column's ``sentinel`` and the caller rewrites them (``pads`` are
    their flat matrix positions) once the stacks are seeded.
    """

    matrix: np.ndarray
    sentinel: np.ndarray  # per column
    group: np.ndarray  # per column: its row group
    cells: np.ndarray  # each collapsed reference's cell of the column-major flattened matrix
    pads: np.ndarray
    pad_column: np.ndarray


def _pack(batch: _Rows, span: int) -> _Packed:
    """Cut every row group into ``span``-reference segments."""
    counts = batch.counts
    span = min(span, int(counts.max()))
    per_row = (counts + span - 1) // span
    columns = int(per_row.sum())
    first = np.cumsum(per_row) - per_row
    group = np.repeat(np.arange(counts.size), per_row)
    pad = per_row * span - counts
    sentinel = batch.sentinel[group]
    values = batch.blocks
    # fill column-major, where each row's cells are contiguous, then transpose
    cells = np.arange(values.size) + np.repeat(first * span + pad - (np.cumsum(counts) - counts), counts)
    by_column = np.empty(columns * span, dtype=np.uint64)
    by_column[cells] = values
    pad_column = np.repeat(first, pad)
    pads = (np.arange(int(pad.sum())) - np.repeat(np.cumsum(pad) - pad, pad)) * columns + pad_column
    matrix = np.ascontiguousarray(by_column.reshape(columns, span).T)
    matrix.reshape(-1)[pads] = sentinel[pad_column]
    return _Packed(matrix, sentinel, group, cells, pads, pad_column)


def _march(matrix: np.ndarray, stack: np.ndarray, record: Optional[np.ndarray] = None) -> None:
    """Lock-step march of every column of ``matrix`` (the vectorised engine).

    ``stack`` is the ``(width, columns)`` recency stack, ways-major so
    each way is one contiguous row, and is advanced in place: ~6 array
    operations per time step move every column at once.  ``record``, when
    given, is a ``(steps, k, columns)`` array that receives the last ``k``
    rows of each step's "not matched at or above this way" mask: ``k = 1``
    records the miss flag, ``k = width`` lets the caller count match
    depths.
    """
    width = int(stack.shape[0])
    ne = np.empty(stack.shape, dtype=bool)
    # prefix-AND by doubling: True while the block has not yet matched,
    # so way k-1 says "match is deeper than k" (the LRU shift condition)
    doubling = [(ne[d:], ne[:-d]) for d in (1 << i for i in range(width.bit_length())) if d < width]
    head = stack[:-1]
    tail = stack[1:]
    shift = np.empty_like(head)
    deeper_than = ne[:-1]
    recorded = ne[width - record.shape[1] :] if record is not None else None
    for t, current in enumerate(matrix):
        np.not_equal(stack, current, out=ne)
        for deeper, shallower in doubling:
            np.logical_and(deeper, shallower, out=deeper)
        if width > 1:
            np.copyto(shift, head)
            np.copyto(tail, shift, where=deeper_than)
        stack[0] = current
        if recorded is not None:
            record[t] = recorded


def _merge(front, back, sentinel) -> np.ndarray:
    """First ``width`` distinct, non-sentinel entries of ``front ++ back``.

    Row-wise over ``(n, width)`` stacks (MRU first).  Each stack holds
    distinct blocks, so duplicates only arise between the halves.  The
    merge is associative: a newer history's stack merged in front of an
    older one's is the stack of both in turn.
    """
    width = int(front.shape[1])
    joined = np.concatenate((front, back), axis=1)
    keep = joined != sentinel[:, None]
    keep[:, width:] &= ~(back[:, :, None] == front[:, None, :]).any(axis=2)
    slot = np.cumsum(keep, axis=1) - 1
    keep &= slot < width
    rows, cols = np.nonzero(keep)
    slots = slot[rows, cols]
    merged = np.empty_like(front)
    merged[:] = sentinel[:, None]
    merged[rows, slots] = joined[rows, cols]
    return merged


def _march_segments(
    batch: _Rows, width: int, hits_c: np.ndarray, depths_c: Optional[np.ndarray]
) -> np.ndarray:
    """Simulate every LRU row as :data:`MARCH_SEGMENT_STEPS`-long segments.

    Pass 1 marches each segment from an empty stack; its final stack is
    the segment's *summary* (its last ``width`` distinct blocks, MRU
    first).  A doubling scan of :func:`_merge` over each row's summaries
    gives every segment its *seed* — the true stack at its start — and the
    row's final stack.  Pass 2 marches each segment from its seed and
    records hits (and depths) into the collapsed-order outputs.  Returns
    every row group's final ``(groups, width)`` stack.
    """
    groups = int(batch.ids.size)
    packed = _pack(batch, MARCH_SEGMENT_STEPS)
    columns = int(packed.group.size)
    stack = np.empty((width, columns), dtype=np.uint64)
    stack[:] = packed.sentinel
    _march(packed.matrix, stack)

    # scan elements: row g owns elements first[g] .. first[g] + its segment
    # count, its carried-in stack followed by its segments' summaries
    seed_at = np.arange(columns) + packed.group
    per_row = np.bincount(packed.group, minlength=groups)
    first = np.cumsum(per_row + 1) - (per_row + 1)
    element_group = np.repeat(np.arange(groups), per_row + 1)
    element_position = np.arange(element_group.size) - first[element_group]
    sentinel = batch.sentinel[element_group]
    elements = np.empty((int(element_group.size), width), dtype=np.uint64)
    elements[:] = sentinel[:, None]
    elements[first] = batch.seed
    elements[seed_at + 1] = stack.T
    # Hillis-Steele inclusive scan: element i becomes the merge of elements
    # i, i-1, ..., 0 of its row in O(log segments) rounds; a full front
    # stack is its own merge, so only short ones are merged
    distance = 1
    while distance <= int(per_row.max()):
        later = np.flatnonzero((element_position >= distance) & (elements[:, -1] == sentinel))
        elements[later] = _merge(elements[later], elements[later - distance], sentinel[later])
        distance *= 2

    stack = np.ascontiguousarray(elements[seed_at].T)
    # only first segments are padded, and their seed is the carried-in stack
    packed.matrix.reshape(-1)[packed.pads] = stack[0][packed.pad_column]
    record = np.empty((int(packed.matrix.shape[0]), 1 if depths_c is None else width, columns), dtype=bool)
    _march(packed.matrix, stack, record)
    hits_c[:] = ~record[:, -1, :].T.reshape(-1)[packed.cells]
    if depths_c is not None:
        # the recorded mask counts the 0-based match position (``width``
        # when absent); 1-based depth with 0 marking "deeper than tracked"
        depths_c[:] = record.sum(axis=1).T.reshape(-1)[packed.cells] + 1
        depths_c[depths_c > width] = 0
    final_at = first + per_row
    return elements[final_at]
