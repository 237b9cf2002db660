"""Tests of :class:`~repro.cache.cache.LruStacks`, the one per-set LRU state.

Both the LRU cache (stacks ``ways`` deep) and the stack-distance simulator
(stacks ``max_associativity`` deep) keep their recency state here, so
this module checks the class directly: :meth:`~LruStacks.touch` depths
and evictions against a per-set ``OrderedDict`` LRU written here, the
serial and kernel branches of :meth:`~LruStacks.access` against each
other, slicing, the inclusion property that lets one class serve both
callers, and the hand-over between the list and matrix forms.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

import repro.cache.cache as cache_module
from repro.cache.cache import KERNEL_MIN_BATCH, LruStacks


def _oracle_depths(blocks, num_sets: int, depth: int) -> list:
    """``(depth, evicted)`` per reference from ``OrderedDict`` stacks
    (least recently used first), sharing no code with :class:`LruStacks`."""
    sets = [OrderedDict() for _ in range(num_sets)]
    out = []
    for block in map(int, blocks):
        entries = sets[block % num_sets]
        if block in entries:
            out.append((len(entries) - list(entries).index(block), False))
            entries.move_to_end(block)
            continue
        evicted = len(entries) == depth
        if evicted:
            entries.popitem(last=False)
        entries[block] = None
        out.append((0, evicted))
    return out


def _oracle_stacks(blocks, num_sets: int, depth: int) -> list:
    sets = [OrderedDict() for _ in range(num_sets)]
    for block in map(int, blocks):
        entries = sets[block % num_sets]
        if block in entries:
            entries.move_to_end(block)
        else:
            if len(entries) == depth:
                entries.popitem(last=False)
            entries[block] = None
    return [list(reversed(entries)) for entries in sets]


def _trace(size: int, span: int, seed: int) -> np.ndarray:
    """Uniform references with back-to-back repeats, like a fetch stream."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, span, size=size, dtype=np.uint64)
    return np.repeat(values, rng.integers(1, 4, size=size))[:size]


def _touch_all(stacks: LruStacks, blocks) -> list:
    return [stacks.touch(block) for block in np.asarray(blocks).tolist()]


class TestTouch:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 8])
    def test_depths_and_evictions_match_oracle(self, depth):
        blocks = _trace(2_000, span=40, seed=depth)
        stacks = LruStacks(num_sets=4, depth=depth)
        assert _touch_all(stacks, blocks) == _oracle_depths(blocks, 4, depth)
        assert stacks.lists == _oracle_stacks(blocks, 4, depth)

    def test_hit_moves_block_to_the_front(self):
        stacks = LruStacks(num_sets=1, depth=4)
        _touch_all(stacks, [1, 2, 3, 4])
        assert stacks.lists == [[4, 3, 2, 1]]
        assert stacks.touch(2) == (3, False)
        assert stacks.lists == [[2, 4, 3, 1]]

    def test_eviction_only_when_a_full_stack_overflows(self):
        stacks = LruStacks(num_sets=1, depth=2)
        assert _touch_all(stacks, [1, 2]) == [(0, False), (0, False)]
        assert stacks.touch(1) == (2, False)  # a hit never evicts
        assert stacks.touch(3) == (0, True)  # pushes out 2, the LRU block
        assert stacks.lists == [[3, 1]]

    def test_sets_are_independent(self):
        stacks = LruStacks(num_sets=4, depth=1)
        _touch_all(stacks, [0, 1, 2, 3])
        assert stacks.touch(4) == (0, True)  # set 0 only
        assert stacks.lists == [[4], [1], [2], [3]]

    def test_set_index_is_the_low_bits(self):
        stacks = LruStacks(num_sets=8, depth=2)
        stacks.touch(0x1234_5678_9ABC_DEF5)
        assert stacks.lists[5] == [0x1234_5678_9ABC_DEF5]


class TestAccessBranches:
    """The serial branch (short batches) and the kernel branch of
    :meth:`LruStacks.access` leave the same output and stacks."""

    @pytest.mark.parametrize("want_depths", [False, True])
    @pytest.mark.parametrize("num_sets", [1, 16])
    @pytest.mark.parametrize("depth", [1, 2, 4, 8, 32])
    def test_mixed_batch_sizes_match_touch_loop(self, depth, num_sets, want_depths):
        trace = _trace(3_500, span=12 * num_sets * depth, seed=depth * num_sets)
        batched = LruStacks(num_sets, depth)
        serial = LruStacks(num_sets, depth)
        start = 0
        # sizes on both sides of the kernel cut-off
        for size in (1, 50, KERNEL_MIN_BATCH - 1, KERNEL_MIN_BATCH, 700, 2_000):
            piece = trace[start : start + size]
            start += size
            out, evicted = batched.access(piece, want_depths=want_depths)
            touched = _touch_all(serial, piece)
            depths = np.array([d for d, _ in touched], dtype=np.int64)
            assert evicted == sum(pushed for _, pushed in touched)
            if want_depths:
                assert out.dtype == np.int64
                assert np.array_equal(out, depths)
            else:
                assert out.dtype == bool
                assert np.array_equal(out, depths > 0)
        assert batched.lists == serial.lists

    @pytest.mark.parametrize("want_depths", [False, True])
    def test_empty_batch(self, want_depths):
        stacks = LruStacks(num_sets=4, depth=2)
        out, evicted = stacks.access(np.empty(0, dtype=np.uint64), want_depths=want_depths)
        assert out.size == 0 and evicted == 0
        assert stacks.lists == [[], [], [], []]


class TestSlicing:
    """Kernel batches run in ``KERNEL_SLICE_BLOCKS`` slices whose state
    carries over, so any slice size gives the one-shot result."""

    @pytest.mark.parametrize("want_depths", [False, True])
    @pytest.mark.parametrize("slice_blocks", [KERNEL_MIN_BATCH, 500, 1_999])
    def test_slices_match_one_shot(self, monkeypatch, slice_blocks, want_depths):
        trace = _trace(6_000, span=400, seed=5)
        oneshot = LruStacks(16, 4)
        expected = oneshot.access(trace, want_depths=want_depths)
        monkeypatch.setattr(cache_module, "KERNEL_SLICE_BLOCKS", slice_blocks)
        sliced = LruStacks(16, 4)
        out, evicted = sliced.access(trace, want_depths=want_depths)
        assert np.array_equal(out, expected[0])
        assert evicted == expected[1]
        assert sliced.lists == oneshot.lists


class TestInclusion:
    """A ``d``-deep stack is the top ``d`` entries of any deeper one, so
    an A-way cache and the stack-distance simulator can share the class."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_shallow_stack_hits_are_deep_depths_up_to_its_depth(self, depth):
        trace = _trace(5_000, span=300, seed=23)
        deep = LruStacks(8, 8)
        depths, _ = deep.access(trace, want_depths=True)
        shallow = LruStacks(8, depth)
        hits, _ = shallow.access(trace)
        assert np.array_equal(hits, (depths >= 1) & (depths <= depth))
        assert shallow.lists == [stack[:depth] for stack in deep.lists]


class TestStateForms:
    """:attr:`LruStacks.lists` and :meth:`LruStacks.table` describe the
    same state whichever was written last."""

    @pytest.mark.parametrize("num_sets", [1, 4, 16])
    def test_table_is_built_from_the_lists(self, num_sets):
        stacks = LruStacks(num_sets, 3)
        _touch_all(stacks, _trace(150, span=10 * num_sets, seed=num_sets))
        lists = [list(stack) for stack in stacks.lists]
        table, occupancy = stacks.table()
        assert table.shape == (num_sets, 3) and table.dtype == np.uint64
        assert occupancy.tolist() == [len(stack) for stack in lists]
        for row, held, stack in zip(table.tolist(), occupancy.tolist(), lists):
            assert row[:held] == stack
            assert row[held:] == [0] * (3 - held)  # unused columns stay zero

    def test_lists_are_rebuilt_after_a_kernel_commit(self):
        trace = _trace(1_000, span=200, seed=3)
        stacks = LruStacks(8, 4)
        stacks.access(trace)
        table, occupancy = stacks.table()
        assert stacks.lists == [
            row[:held] for row, held in zip(table.tolist(), occupancy.tolist())
        ]
        assert stacks.lists == _oracle_stacks(trace, 8, 4)

    def test_touch_after_kernel_invalidates_the_table(self):
        stacks = LruStacks(4, 2)
        stacks.access(_trace(KERNEL_MIN_BATCH, span=40, seed=1))
        stale, _ = stacks.table()
        stacks.touch(1_000)
        table, occupancy = stacks.table()
        assert table is not stale
        assert table[0, 0] == 1_000 and occupancy[0] >= 1

    @pytest.mark.parametrize("size", [10, KERNEL_MIN_BATCH])
    def test_clear_empties_both_forms(self, size):
        stacks = LruStacks(4, 2)
        stacks.access(_trace(size, span=40, seed=2))
        stacks.clear()
        assert stacks.lists == [[], [], [], []]
        table, occupancy = stacks.table()
        assert not occupancy.any() and not table.any()

    def test_commit_without_rows_grows_nothing(self):
        stacks = LruStacks(4, 2)
        empty = np.empty(0, dtype=np.int64)
        assert stacks.commit(empty, np.empty((0, 2), np.uint64), empty) == 0

    def test_commit_returns_occupancy_growth(self):
        """A batch's evictions are its misses less this growth."""
        stacks = LruStacks(2, 2)
        _touch_all(stacks, [0, 2])  # set 0 full, set 1 empty
        stacks.table()
        rows = np.array([0, 1])
        new = np.array([[4, 2], [1, 0]], dtype=np.uint64)
        # set 0: miss on 4 evicts (no growth); set 1: miss on 1 grows by one,
        # so the two misses made one eviction
        assert stacks.commit(rows, new, np.array([2, 1])) == 1
        assert stacks.lists == [[4, 2], [1]]
