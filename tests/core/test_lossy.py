"""Tests of the lossy phase-based codec (paper Section 5), through containers."""

from __future__ import annotations

import gc
import hashlib
import types

import numpy as np
import pytest

from repro.core.atc import MODE_LOSSLESS, AtcEncoder
from repro.core.histograms import IntervalSummary
from repro.core.lossy import LossyConfig, LossyIntervalEncoder
from repro.errors import ConfigurationError
from repro.traces import synthetic
from repro.traces.filter import StreamingCacheFilter
from repro.traces.spec_like import get_workload


class TestLossyConfig:
    def test_defaults_are_valid(self):
        config = LossyConfig()
        assert config.threshold == pytest.approx(0.1)

    def test_paper_defaults(self):
        config = LossyConfig.paper_defaults()
        assert config.interval_length == 10_000_000
        assert config.threshold == pytest.approx(0.1)

    def test_paper_defaults_with_override(self):
        config = LossyConfig.paper_defaults(interval_length=1_000)
        assert config.interval_length == 1_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_length": 0},
            {"interval_length": -5},
            {"threshold": -0.1},
            {"threshold": 2.5},
            {"chunk_buffer_addresses": 0},
            {"backend": "no-such-backend"},
        ],
    )
    def test_invalid_configurations(self, kwargs):
        with pytest.raises(ConfigurationError):
            LossyConfig(**kwargs)


class TestLossyStructure:
    def test_first_interval_is_always_a_chunk(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        decoder = encode(working_set_addresses, config)
        assert decoder.records[0].kind == "chunk"
        assert decoder.records[0].chunk_id == 0

    def test_length_preserved(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=7_000)
        decoder = encode(working_set_addresses, config)
        approx = decoder.read_all()
        assert approx.size == working_set_addresses.size

    def test_number_of_intervals(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        decoder = encode(working_set_addresses, config)
        expected = -(-working_set_addresses.size // 10_000)
        assert len(decoder.records) == expected
        assert sum(record.length for record in decoder.records) == working_set_addresses.size

    def test_stationary_trace_stores_single_chunk(self, working_set_addresses, encode):
        """The Figure 8 behaviour: all intervals look like the first one."""
        config = LossyConfig(interval_length=10_000, threshold=0.1)
        decoder = encode(working_set_addresses, config)
        assert decoder.metadata["num_chunks"] == 1
        assert all(record.kind == "imitate" for record in decoder.records[1:])

    def test_unstable_trace_stores_many_chunks(self, rng, encode):
        """Intervals with genuinely different structure must become chunks."""
        pieces = []
        pieces.append(synthetic.sequential_stream(5_000, base=0x1000_0000, stride=64))
        pieces.append(synthetic.random_working_set(5_000, working_set_blocks=100, seed=1))
        pieces.append(synthetic.random_working_set(5_000, working_set_blocks=200_000, seed=2))
        pieces.append(synthetic.pointer_chase(5_000, num_nodes=64, seed=3))
        trace = synthetic.phased_stream(pieces) >> np.uint64(6)
        config = LossyConfig(interval_length=5_000, threshold=0.05)
        decoder = encode(trace, config)
        assert decoder.metadata["num_chunks"] >= 3

    def test_zero_threshold_disables_imitation_for_nonidentical_intervals(self, rng, encode):
        trace = rng.integers(0, 1 << 40, size=40_000, dtype=np.uint64)
        config = LossyConfig(interval_length=10_000, threshold=0.0)
        decoder = encode(trace, config)
        assert decoder.metadata["num_chunks"] == len(decoder.records)

    def test_empty_trace(self, encode):
        decoder = encode(np.empty(0, dtype=np.uint64))
        assert decoder.metadata["num_chunks"] == 0
        assert decoder.read_all().size == 0

    def test_trace_shorter_than_interval(self, rng, encode):
        trace = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        config = LossyConfig(interval_length=10_000)
        decoder = encode(trace, config)
        assert decoder.metadata["num_chunks"] == 1
        assert np.array_equal(decoder.read_all(), trace)

    def test_tail_interval_handled(self, rng, encode):
        trace = rng.integers(0, 4096, size=25_000, dtype=np.uint64)
        config = LossyConfig(interval_length=10_000)
        decoder = encode(trace, config)
        assert decoder.records[-1].length == 5_000
        assert decoder.read_all().size == 25_000

    def test_bounded_chunk_table_still_decodes(self, rng, encode):
        trace = rng.integers(0, 1 << 40, size=60_000, dtype=np.uint64)
        config = LossyConfig(interval_length=5_000, threshold=0.0, max_table_entries=2)
        decoder = encode(trace, config)
        assert np.array_equal(decoder.read_all(), trace)


class TestLossyFidelity:
    def test_chunk_intervals_are_exact(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        decoder = encode(working_set_addresses, config)
        approx = decoder.read_all()
        first_chunk_length = decoder.records[0].length
        assert np.array_equal(approx[:first_chunk_length], working_set_addresses[:first_chunk_length])

    def test_distinct_address_count_roughly_preserved(self, working_set_addresses, encode):
        """The myopic-interval fix: footprint must not collapse."""
        config = LossyConfig(interval_length=10_000)
        approx = encode(working_set_addresses, config).read_all()
        exact_distinct = np.unique(working_set_addresses).size
        approx_distinct = np.unique(approx).size
        assert approx_distinct >= 0.8 * exact_distinct

    def test_translation_disabled_shrinks_footprint(self, rng, encode):
        """Figure 4: without byte translation the footprint collapses."""
        # Two phases touching disjoint regions of the same size/structure.
        phase_a = rng.integers(0, 4096, size=20_000, dtype=np.uint64) + np.uint64(1 << 20)
        phase_b = rng.integers(0, 4096, size=20_000, dtype=np.uint64) + np.uint64(1 << 21)
        trace = np.concatenate([phase_a, phase_b])
        approx_with = encode(
            trace, LossyConfig(interval_length=20_000, enable_translation=True)
        ).read_all()
        approx_without = encode(
            trace, LossyConfig(interval_length=20_000, enable_translation=False)
        ).read_all()
        exact_distinct = np.unique(trace).size
        assert np.unique(approx_with).size >= 0.8 * exact_distinct
        assert np.unique(approx_without).size <= 0.6 * exact_distinct

    def test_lossy_bpa_not_worse_than_lossless_on_stationary_trace(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        lossy_bpa = encode(working_set_addresses, config).bits_per_address()
        lossless_bpa = encode(
            working_set_addresses, LossyConfig(chunk_buffer_addresses=10_000), mode=MODE_LOSSLESS
        ).bits_per_address()
        assert lossy_bpa < lossless_bpa

    def test_translations_recorded_only_for_imitations(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        decoder = encode(working_set_addresses, config)
        for record in decoder.records:
            if record.kind == "chunk":
                assert record.translations is None
            else:
                assert record.translations.shape == (8, 256)
                assert record.active_bytes.shape == (8,)


def _plan(config, addresses):
    """Plan every interval of ``addresses``; returns the planner and its results."""
    planner = LossyIntervalEncoder(config)
    planned = [
        planner.plan_interval(addresses[start : start + config.interval_length])
        for start in range(0, addresses.size, config.interval_length)
    ]
    return planner, planned


class TestLossyIntervalEncoder:
    def test_incremental_matches_batch(self, working_set_addresses, encode):
        config = LossyConfig(interval_length=10_000)
        _, planned = _plan(config, working_set_addresses)
        decoder = encode(working_set_addresses, config)
        assert [(r.kind, r.chunk_id) for r, _ in planned] == [
            (r.kind, r.chunk_id) for r in decoder.records
        ]

    def test_chunk_payloads_only_for_new_chunks(self, working_set_addresses):
        planner, planned = _plan(LossyConfig(interval_length=10_000), working_set_addresses)
        payloads = sum(needs_payload for _, needs_payload in planned)
        assert payloads == planner.num_chunks == 1

    def test_bounded_table_bounds_the_summaries_held(self, rng):
        """Evicted chunks' summaries are released: every interval below is a
        new chunk, and the planner never holds more than the table's four."""
        config = LossyConfig(interval_length=500, threshold=0.0, max_table_entries=4)
        planner = LossyIntervalEncoder(config)
        for _ in range(40):
            interval = rng.integers(0, 1 << 58, size=500, dtype=np.uint64)
            assert planner.plan_interval(interval)[1]
            assert _summaries_held(planner) <= 4
        assert planner.num_chunks == 40


def _summaries_held(root) -> int:
    """Count the :class:`IntervalSummary` objects reachable from ``root``."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        count += isinstance(obj, IntervalSummary)
        stack.extend(gc.get_referents(obj))
    return count


#: SHA-256 over each lossy container's file names and bytes, in name order,
#: for ``reference_stream(refs, seed=1)`` of the ``online_lossy`` benchmark
#: sources, cache-filtered in 65 536-reference handoffs into
#: ``AtcEncoder(mode="k")`` with its defaults.  Recorded before the planner
#: became array code; any change in a record or chunk shows here.
LOSSY_CONTAINER_SHA256 = {
    ("433.milc", 30_000): "f5139b4efb89b503d9c65a82c8f8ac879b05d853c2222346975e69ffed788bc9",
    ("433.milc", 1_100_000): "0be740434f13a2057e4e9a6bf959ca416eab30a9228ae29a33285031f9e8885e",
    ("410.bwaves", 1_100_000): "62e7f4d0e527dbd04c7dd8392ebbb917675b99e6ac218e131de9308e5dc6a101",
}


@pytest.mark.parametrize(
    "name, refs",
    [
        pytest.param(name, refs, marks=[pytest.mark.slow] if refs > 30_000 else [])
        for name, refs in LOSSY_CONTAINER_SHA256
    ],
)
def test_lossy_containers_at_benchmark_scale(tmp_path, name, refs):
    directory = tmp_path / "container"
    streaming = StreamingCacheFilter()
    with AtcEncoder(directory, mode="k") as encoder:
        for chunk in get_workload(name).reference_stream(refs, seed=1).iter_chunks(65_536):
            encoder.code_many(streaming.filter_chunk(chunk))
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == LOSSY_CONTAINER_SHA256[name, refs]
