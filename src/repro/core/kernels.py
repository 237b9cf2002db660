"""Array-native cache-simulation kernels: one stack engine for LRU and FIFO.

The cache filter is the pipeline's dominant stage — every reference the
paper compresses first passes through the L1 simulation — and the serial
simulators pay one Python iteration per reference.  This module replaces
that with a *set-parallel stack kernel* that executes whole batches as
NumPy array operations:

1. **Sort by set.**  Accesses to different cache sets never interact, so
   the batch is stably sorted by a caller-supplied *row* index (one row
   per ``(cache lane, set)`` pair; independent caches — e.g. the filter's
   L1I and L1D — fuse into one row space and simulate in a single call).
2. **Collapse repeat runs.**  A reference equal to the immediately
   preceding reference of the same row is a guaranteed depth-1 hit under
   both LRU and FIFO and leaves the replacement state untouched, so
   consecutive duplicates (the bulk of instruction streams) are resolved
   without simulating them.
3. **March rows in lock-step.**  The surviving references are packed into
   a column-major ``(rows, time)`` matrix, rows ordered by reference count
   so the rows still active at step ``t`` always form a leading prefix.
   One allocation-free vector step per set-local time index then advances
   *every* set's recency stack at once: an equality scan against the
   ``(rows, ways)`` stack matrix yields the per-row match depth, and a
   masked shift performs the LRU move-to-front (or FIFO fill) for all rows
   simultaneously.  Python cost is one iteration per *time step*, not per
   reference.
4. **Replay outliers.**  A row so much longer than the mean that it would
   stretch the matrix (or a degenerate single-set geometry, where no
   padding sentinel exists) is replayed exactly with per-reference list
   operations instead — the kernel's built-in semantics oracle.  Both
   paths are bit-identical to the serial simulators by construction and by
   the equivalence suite in ``tests/cache/test_kernels.py``.

Because a reference hits an ``A``-way LRU set iff its per-set stack
distance is at most ``A`` (Mattson's inclusion property), the same pass
yields the hit mask for any associativity, the exact capped stack-distance
of every reference (one pass gives the whole miss-ratio curve, consumed by
:class:`repro.cache.stackdist.LruStackSimulator`), and the miss streams
the cache filter and hierarchy emit.  Callers carry the returned per-row
stacks into the next batch, which is what makes chunked streaming
byte-identical to one-shot simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["KernelBatchResult", "simulate_batch"]

#: Rows with fewer references than this never take the replay path.
REPLAY_MIN_ROW_REFS = 64

#: The lock-step march pays a fixed cost per time step, so it stays ahead
#: of per-reference replay only while at least this many rows are still
#: active; rows longer than the ``MARCH_MIN_ACTIVE_ROWS``-th largest row
#: would march nearly alone through their tail and are replayed instead.
MARCH_MIN_ACTIVE_ROWS = 13

#: Hard cap on the march's time axis relative to the mean row length (it
#: bounds the padded step matrix's memory even when many rows are long).
REPLAY_SKEW_FACTOR = 8


@dataclass
class KernelBatchResult:
    """Outcome of one :func:`simulate_batch` call.

    Attributes:
        hits: Boolean hit mask, aligned with the input references.
        depths: Per-reference LRU stack depth (1-based), ``0`` when the
            block was beyond the tracked ``ways`` (a cold or deep miss).
            ``None`` unless depths were requested (LRU only).
        final_stacks: Per-touched-row replacement state after the batch:
            ``row id -> [(block, last_index), ...]`` ordered most recently
            used (LRU) / most recently filled (FIFO) first, trimmed to the
            row's associativity.  ``last_index`` is the position in the
            input batch of the reference that set the block's stamp (the
            last touch for LRU, the last fill for FIFO), or ``-1`` when
            the block survives from the initial state untouched (its old
            stamp still stands).  When stamp tracking is disabled every
            ``last_index`` is ``-1``.
    """

    hits: np.ndarray
    depths: Optional[np.ndarray]
    final_stacks: Dict[int, List[Tuple[int, int]]]


def _replay_row(
    row_blocks: np.ndarray,
    base: int,
    width: int,
    row_ways: int,
    policy: str,
    initial: Sequence[int],
    hits_out: np.ndarray,
    depths_out: Optional[np.ndarray],
    track_stamps: bool,
    last_touch: np.ndarray,
) -> List[Tuple[int, int]]:
    """Exact replay of one skewed row (the kernel's serial oracle).

    Operates on the collapsed reference array of a single row, mutating
    the ``hits_out`` / ``depths_out`` slices in place and returning the
    row's final ``(block, stamp_index)`` stack, newest first, with stamp
    indices already converted to input-batch positions via ``last_touch``.

    Three regimes, fastest applicable first:

    * a row whose distinct blocks all fit in its associativity (and that
      starts cold) can never evict, so only first occurrences miss — hit
      mask, stamps and final order come from :func:`numpy.unique` with no
      per-reference work at all (this is the tight-loop instruction-stream
      shape that routes rows here in the first place);
    * when depths are not required, a dict in recency/fill order replays
      with O(1) membership per reference;
    * otherwise a list replay reports the exact per-reference stack depth.
    """
    is_lru = policy == "lru"
    if depths_out is None and not initial:
        distinct, first_seen = np.unique(row_blocks, return_index=True)
        if int(distinct.size) <= row_ways:
            hits_out[:] = True
            hits_out[first_seen] = False
            if is_lru:
                reversed_first = np.unique(row_blocks[::-1], return_index=True)[1]
                stamp_at = int(row_blocks.size) - 1 - reversed_first
            else:
                stamp_at = first_seen
            newest_first = np.argsort(stamp_at, kind="stable")[::-1]
            return [
                (
                    int(distinct[i]),
                    int(last_touch[base + int(stamp_at[i])]) if track_stamps else -1,
                )
                for i in newest_first.tolist()
            ]
    if depths_out is None:
        # dict in stack order (oldest entry first); values are compressed
        # stamp indices, -1 while a seeded block remains untouched
        entries: Dict[int, int] = {block: -1 for block in reversed(list(initial))}
        for offset, block in enumerate(row_blocks.tolist()):
            if block in entries:
                hits_out[offset] = True
                if is_lru:
                    del entries[block]
                    entries[block] = base + offset
            else:
                hits_out[offset] = False
                entries[block] = base + offset
                if len(entries) > width:
                    del entries[next(iter(entries))]
        final = list(entries.items())[::-1][:row_ways]
        return [
            (block, int(last_touch[ci]) if track_stamps and ci >= 0 else -1)
            for block, ci in final
        ]
    # depth-reporting regime: only LRU ever needs depths (simulate_batch
    # rejects want_depths and per-row associativities for FIFO up front)
    assert is_lru, "depth replay is LRU-only by construction"
    stack = list(initial)
    last: Dict[int, int] = {}
    for offset, block in enumerate(row_blocks.tolist()):
        try:
            position = stack.index(block)
        except ValueError:
            position = -1
        if position >= 0:
            depth = position + 1
            del stack[position]
        else:
            depth = 0
        stack.insert(0, block)
        if len(stack) > width:
            stack.pop()
        hits_out[offset] = 0 < depth <= row_ways
        depths_out[offset] = depth
        if track_stamps:
            last[block] = base + offset
    return [
        (block, int(last_touch[last[block]]) if block in last else -1)
        for block in stack[:row_ways]
    ]


def simulate_batch(
    blocks: np.ndarray,
    rows: np.ndarray,
    set_mask: int,
    ways: Union[int, np.ndarray],
    policy: str = "lru",
    initial_stacks: Optional[Mapping[int, Sequence[int]]] = None,
    want_depths: bool = False,
    track_stamps: bool = True,
) -> KernelBatchResult:
    """Simulate one batch of references against per-row recency stacks.

    Args:
        blocks: ``uint64`` block addresses, in access order.
        rows: Row index per reference (``lane * num_sets + set``); all
            references of a row must share their set bits
            (``block & set_mask``), which is what makes a padding sentinel
            constructible.
        set_mask: The per-lane set-index mask (``num_sets - 1``).
        ways: Associativity — a scalar, or an integer array indexed by row
            id when fused lanes have different associativities (LRU only;
            FIFO has no inclusion property, so mixed widths would change
            its semantics).
        policy: ``"lru"`` or ``"fifo"``.
        initial_stacks: Replacement state carried in from earlier batches:
            ``row id -> blocks`` ordered most recently used (LRU) / most
            recently filled (FIFO) first.  Only rows present in this batch
            are consulted.
        want_depths: Also return per-reference stack depths (LRU only).
        track_stamps: Record the batch index behind each surviving
            block's stamp (disable when the caller does not keep stamps,
            e.g. the stack-distance simulator — it trims three array
            operations from every step).

    Returns:
        A :class:`KernelBatchResult`; see its attributes for layout.

    Example:
        >>> import numpy as np
        >>> blocks = np.array([8, 9, 8, 17, 9], dtype=np.uint64)
        >>> result = simulate_batch(blocks, (blocks & np.uint64(7)).astype(np.int64),
        ...                         set_mask=7, ways=2)
        >>> result.hits.tolist()            # 8 and 9 hit on reuse, 17 is cold
        [False, False, True, False, True]
        >>> sorted(result.final_stacks)     # sets 0 and 1 were touched
        [0, 1]
    """
    if policy not in ("lru", "fifo"):
        raise ConfigurationError(f"kernel supports lru/fifo policies, got {policy!r}")
    blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    if blocks.shape != rows.shape or blocks.ndim != 1:
        raise ConfigurationError("blocks and rows must be 1-D arrays of equal length")
    if rows.size and int(rows.max()) < np.iinfo(np.int16).max:
        # NumPy's stable sort is a radix sort for 16-bit integers (an
        # order of magnitude faster than the 32-bit merge sort), and any
        # cache-filter row space fits easily
        rows = rows.astype(np.int16)
    count = int(blocks.size)
    uniform_ways = not isinstance(ways, np.ndarray)
    if policy == "fifo" and not uniform_ways:
        raise ConfigurationError("per-row associativities require LRU (Mattson inclusion)")
    if want_depths and policy != "lru":
        raise ConfigurationError("stack depths are only defined for LRU")
    initial_stacks = initial_stacks or {}
    if count == 0:
        return KernelBatchResult(np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64) if want_depths else None, {})

    order = np.argsort(rows, kind="stable")
    sorted_blocks = blocks[order]
    sorted_rows = rows[order]
    new_row = np.empty(count, dtype=bool)
    new_row[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=new_row[1:])
    bounds = np.flatnonzero(new_row)
    row_ids = sorted_rows[bounds]
    groups = int(bounds.size)

    if uniform_ways:
        width = int(ways)
        ways_of_group = np.full(groups, width, dtype=np.int64)
    else:
        ways_of_group = ways[row_ids].astype(np.int64)
        width = int(ways_of_group.max())
    if width < 1:
        raise ConfigurationError(f"ways must be >= 1, got {width}")
    need_depths = want_depths or not uniform_ways

    # -- collapse consecutive duplicate references (guaranteed depth-1 hits)
    dup = np.zeros(count, dtype=bool)
    dup[1:] = ~new_row[1:] & (sorted_blocks[1:] == sorted_blocks[:-1])
    keep = np.flatnonzero(~dup)
    collapsed = int(keep.size)
    cblocks = sorted_blocks[keep]
    run_last = np.empty(collapsed, dtype=np.int64)
    run_last[:-1] = keep[1:] - 1
    run_last[-1] = count - 1
    # original-batch index behind each collapsed run's stamp: LRU stamps
    # record the run's *last* touch, FIFO stamps the fill itself (hits
    # inside the run never update a FIFO stamp)
    last_touch = order[run_last] if policy == "lru" else order[keep]
    cbounds = np.flatnonzero(new_row[keep])
    ccounts = np.diff(np.append(cbounds, collapsed))

    hits_c = np.zeros(collapsed, dtype=bool)
    depths_c = np.zeros(collapsed, dtype=np.int64) if need_depths else None
    final_stacks: Dict[int, List[Tuple[int, int]]] = {}

    # -- route rows: rows that would march nearly alone through their tail
    #    (or a maskless single-set geometry, where no sentinel value
    #    exists) take the exact replay instead
    if groups >= MARCH_MIN_ACTIVE_ROWS:
        tail_depth = int(np.partition(ccounts, -MARCH_MIN_ACTIVE_ROWS)[-MARCH_MIN_ACTIVE_ROWS])
    else:
        tail_depth = 0
    mean = max(1, collapsed // groups)
    limit = max(REPLAY_MIN_ROW_REFS, min(tail_depth, REPLAY_SKEW_FACTOR * mean))
    heavy = ccounts > limit
    if set_mask == 0:
        heavy = np.ones(groups, dtype=bool)
    for g in np.flatnonzero(heavy).tolist():
        start = int(cbounds[g])
        stop = start + int(ccounts[g])
        rid = int(row_ids[g])
        final_stacks[rid] = _replay_row(
            cblocks[start:stop],
            start,
            width,
            int(ways_of_group[g]),
            policy,
            initial_stacks.get(rid, ()),
            hits_c[start:stop],
            depths_c[start:stop] if depths_c is not None else None,
            track_stamps,
            last_touch,
        )

    light = np.flatnonzero(~heavy)
    if light.size:
        _march_light_rows(
            light,
            cbounds,
            ccounts,
            cblocks,
            row_ids,
            set_mask,
            width,
            ways_of_group,
            policy,
            initial_stacks,
            need_depths,
            track_stamps,
            hits_c,
            depths_c,
            final_stacks,
            last_touch,
        )

    hits_sorted = np.empty(count, dtype=bool)
    hits_sorted[keep] = hits_c
    hits_sorted[dup] = True
    hits = np.empty(count, dtype=bool)
    hits[order] = hits_sorted
    depths = None
    if need_depths:
        depths_sorted = np.empty(count, dtype=np.int64)
        depths_sorted[keep] = depths_c
        depths_sorted[dup] = 1
        depths = np.empty(count, dtype=np.int64)
        depths[order] = depths_sorted
    if not uniform_ways:
        # mixed associativities: the march records depths against the
        # widest stack; each reference hits iff it is within its own row's
        # associativity (Mattson inclusion)
        per_ref_ways = ways[rows]
        hits = (depths >= 1) & (depths <= per_ref_ways)
    return KernelBatchResult(hits, depths if want_depths else None, final_stacks)


def _march_light_rows(
    light: np.ndarray,
    cbounds: np.ndarray,
    ccounts: np.ndarray,
    cblocks: np.ndarray,
    row_ids: np.ndarray,
    set_mask: int,
    width: int,
    ways_of_group: np.ndarray,
    policy: str,
    initial_stacks: Mapping[int, Sequence[int]],
    need_depths: bool,
    track_stamps: bool,
    hits_c: np.ndarray,
    depths_c: Optional[np.ndarray],
    final_stacks: Dict[int, List[Tuple[int, int]]],
    last_touch: np.ndarray,
) -> None:
    """Lock-step march of the non-skewed rows (the vectorised fast path).

    Packs the selected rows into a column-major reference matrix ordered
    by row length and advances every row's stack with one bounded set of
    array operations per time step.  Results land in the caller's
    collapsed-order output arrays; final stacks (with collapsed stamp
    indices) are merged into ``final_stacks``.
    """
    counts = ccounts[light]
    by_length = np.argsort(-counts, kind="stable")
    marched = light[by_length]
    starts = cbounds[marched]
    counts = counts[by_length]
    rows_m = int(marched.size)
    steps = int(counts[0])

    # per-row sentinel: differs from every block of the row in its set bits
    sentinel = (cblocks[starts] & np.uint64(set_mask)) ^ np.uint64(1)
    matrix = np.empty((rows_m, steps), dtype=np.uint64, order="F")
    matrix[:] = sentinel[:, None]
    rank = np.full(int(row_ids.size), -1, dtype=np.int64)
    rank[marched] = np.arange(rows_m)
    group_of = np.repeat(np.arange(int(row_ids.size)), ccounts)
    in_march = rank[group_of] >= 0
    flat_rows = rank[group_of][in_march]
    flat_cols = (np.arange(int(cblocks.size)) - cbounds[group_of])[in_march]
    matrix[flat_rows, flat_cols] = cblocks[in_march]

    stack = np.empty((rows_m, width), dtype=np.uint64)
    stack[:] = sentinel[:, None]
    for g in marched.tolist():
        rid = int(row_ids[g])
        seed = initial_stacks.get(rid)
        if seed:
            r = int(rank[g])
            seed = list(seed)[:width]
            stack[r, : len(seed)] = np.array(seed, dtype=np.uint64)

    miss_mat = np.zeros((rows_m, steps), dtype=bool, order="F")
    depth_mat = np.zeros((rows_m, steps), dtype=np.int64, order="F") if need_depths else None
    active = np.searchsorted(-counts, -np.arange(1, steps + 1), side="right")
    scan = np.empty((rows_m, width), dtype=bool)
    shift = np.empty((rows_m, width - 1), dtype=np.uint64) if width > 1 else None
    is_lru = policy == "lru"
    # the active-row count only ever shrinks, so the time axis splits into
    # segments of constant row count; hoisting every view out of the inner
    # loop leaves ~5 array operations per step
    segment_ends = np.append(np.flatnonzero(active[1:] != active[:-1]), steps - 1)
    segment_start = 0
    for segment_end in segment_ends.tolist():
        a = int(active[segment_start])
        mat_a = matrix[:a]
        st = stack[:a]
        ne = scan[:a]
        ne_head = ne[:, :-1]
        miss = ne[:, -1]
        st_tail = st[:, 1:]
        st_head = st[:, :-1]
        shift_a = shift[:a] if width > 1 else None
        miss_a = miss_mat[:a]
        depth_a = depth_mat[:a] if depth_mat is not None else None
        for t in range(segment_start, segment_end + 1):
            current = mat_a[:, t]
            np.not_equal(st, current[:, None], out=ne)
            # prefix-AND: True while the block has not yet matched, so
            # column k-1 says "match is at depth > k" — the shift condition
            np.logical_and.accumulate(ne, axis=1, out=ne)
            if depth_a is not None:
                np.sum(ne, axis=1, out=depth_a[:, t])
            if is_lru:
                if width > 1:
                    np.copyto(shift_a, st_head)
                    np.copyto(st_tail, shift_a, where=ne_head)
                st[:, 0] = current
            else:
                if width > 1:
                    np.copyto(shift_a, st_head)
                    np.copyto(st_tail, shift_a, where=miss[:, None])
                np.copyto(st[:, 0], current, where=miss)
            miss_a[:, t] = miss
        segment_start = segment_end + 1

    flat_hits = ~miss_mat[flat_rows, flat_cols]
    hits_c[in_march] = flat_hits
    if depths_c is not None:
        # the march recorded the 0-based match position (or ``width`` when
        # absent); 1-based depth with 0 marking "deeper than tracked"
        raw = depth_mat[flat_rows, flat_cols] + 1
        raw[raw > width] = 0
        depths_c[in_march] = raw
    if track_stamps:
        # recover each surviving block's stamp source after the fact: its
        # last matching column in the reference matrix (for FIFO, its last
        # *missing* column — hits never update a FIFO stamp).  One
        # (rows, ways, time) tensor pass replaces per-step stamp shifting.
        reversed_matrix = matrix[:, ::-1]
        matches = stack[:, :, None] == reversed_matrix[:, None, :]
        if not is_lru:
            matches &= miss_mat[:, ::-1][:, None, :]
        reversed_col = matches.argmax(axis=2)
        touched = np.take_along_axis(matches, reversed_col[:, :, None], axis=2)[:, :, 0]
        compressed_idx = starts[:, None] + (steps - 1 - reversed_col)
        # convert compressed indices to input-batch stamp positions in one
        # vectorised gather (run continuations carry the stamp for LRU);
        # untouched slots hold garbage indices into the padding region, so
        # clip before gathering and mask after
        np.clip(compressed_idx, 0, int(last_touch.size) - 1, out=compressed_idx)
        last_idx = np.where(touched, last_touch[compressed_idx], -1)
    else:
        last_idx = np.full((rows_m, width), -1, dtype=np.int64)
    occupancy = (stack != sentinel[:, None]).sum(axis=1)
    for g in marched.tolist():
        r = int(rank[g])
        rid = int(row_ids[g])
        depth = min(int(occupancy[r]), int(ways_of_group[g]))
        final_stacks[rid] = list(
            zip(stack[r, :depth].tolist(), last_idx[r, :depth].tolist())
        )
