"""Hand-over between the cache's two state forms.

:class:`~repro.cache.cache.LruStacks` keeps a cache's recency state
either as per-set MRU-first lists (the serial oracle's form) or as a
``(sets x ways)`` block matrix plus occupancy (the kernel's form),
building each lazily from the other.  A state machine interleaves every
access path and introspection call against an all-serial twin and checks
that the two caches agree after every step; a streaming filter must stay
on the matrices once its first chunk has run.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cache.cache import (
    KERNEL_MIN_BATCH,
    CacheConfig,
    LruStacks,
    SetAssociativeCache,
    access_lanes,
)
from repro.traces.filter import CacheFilter, StreamingCacheFilter
from repro.traces.spec_like import get_workload

_block = st.integers(min_value=0, max_value=96)
_lane = st.integers(min_value=0, max_value=1)


def _tiled(pattern, length):
    return (pattern * (length // len(pattern) + 1))[:length]


# A short pattern repeated to kernel size (at least the batch length below
# which access_batch goes serial) touches few sets and leaves older
# residents untouched, so the kernel must carry their recency order; it
# also shrinks fast.
_pattern = st.lists(_block, min_size=1, max_size=12)
_kernel_batch = st.builds(
    _tiled, _pattern, st.integers(min_value=KERNEL_MIN_BATCH, max_value=KERNEL_MIN_BATCH + 64)
)
_fused_batch = st.builds(_tiled, _pattern, st.integers(min_value=0, max_value=KERNEL_MIN_BATCH))


def _serial_hits(cache: SetAssociativeCache, blocks) -> list:
    return [cache.access_block(block) for block in blocks]


class CacheHandover(RuleBasedStateMachine):
    """Two kernel-driven lanes against two serial twins."""

    @initialize(ways=st.sampled_from([1, 2, 4]), sets=st.sampled_from([1, 2, 4, 8]))
    def build(self, ways, sets):
        configs = (
            CacheConfig(num_sets=sets, associativity=ways),
            CacheConfig(num_sets=8, associativity=2),
        )
        self.subject = [SetAssociativeCache(config) for config in configs]
        self.twin = [SetAssociativeCache(config) for config in configs]

    @rule(lane=_lane, block=_block)
    def access_block(self, lane, block):
        assert self.subject[lane].access_block(block) == self.twin[lane].access_block(block)

    @rule(lane=_lane, blocks=_kernel_batch)
    def access_batch(self, lane, blocks):
        hits = self.subject[lane].access_batch(np.array(blocks, dtype=np.uint64))
        assert hits.tolist() == _serial_hits(self.twin[lane], blocks)

    @rule(first=_fused_batch, second=_fused_batch)
    def fused_batches(self, first, second):
        lanes = np.repeat([0, 1], [len(first), len(second)])
        hits = access_lanes(self.subject, np.array(first + second, dtype=np.uint64), lanes)
        for lane, (twin, blocks) in enumerate(zip(self.twin, (first, second))):
            assert hits[lanes == lane].tolist() == _serial_hits(twin, blocks)

    @rule(lane=_lane)
    def flush(self, lane):
        self.subject[lane].flush()
        self.twin[lane].flush()

    @rule(lane=_lane)
    def reset(self, lane):
        self.subject[lane].reset()
        self.twin[lane].reset()

    @rule(lane=_lane, block=_block)
    def contains_block(self, lane, block):
        assert self.subject[lane].contains_block(block) == self.twin[lane].contains_block(block)

    @rule(lane=_lane)
    def resident_blocks(self, lane):
        assert self.subject[lane].resident_blocks() == self.twin[lane].resident_blocks()

    @invariant()
    def same_state(self):
        for subject, twin in zip(self.subject, self.twin):
            assert subject.stats == twin.stats
            # read the MRU-first lists off a copy, so checking never
            # changes which state form the next step starts from
            assert copy.deepcopy(subject)._lru.lists == twin._lru.lists


CacheHandover.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCacheHandover = CacheHandover.TestCase


def test_streaming_filter_stays_on_the_matrices(monkeypatch):
    """After the first chunk, no handoff builds the per-set lists."""
    stream = get_workload("433.milc").reference_stream(6 * 8192, seed=0)
    chunks = list(stream.iter_chunks(8192))
    assert len(chunks) >= 5
    streaming = StreamingCacheFilter()
    misses = [streaming.filter_chunk(chunks[0])]

    def refuse(self):
        raise AssertionError("a kernel handoff materialised the per-set lists")

    monkeypatch.setattr(LruStacks, "lists", property(refuse))
    for chunk in chunks[1:]:
        misses.append(streaming.filter_chunk(chunk))
    monkeypatch.undo()
    assert np.array_equal(np.concatenate(misses), CacheFilter().miss_blocks(stream))
