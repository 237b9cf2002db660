"""Cross-module property-based tests (hypothesis).

These properties tie several subsystems together and encode the invariants
the paper's design relies on:

* every lossless path in the library is an exact roundtrip, whatever the
  input values;
* the lossy codec always preserves the sequence length and never references
  a chunk it did not store;
* byte translations are permutations, so imitation can never merge two
  distinct addresses of a chunk;
* the on-disk container decodes to exactly the interval trace the planner
  recorded, replayed against the original chunk intervals;
* the planner's array code (histograms, chunk-table search, translations)
  agrees bit for bit with the scalar definitions of Section 5.1;
* every distinct-address count (trace footprint, lossy fidelity ratio,
  working-set windows) is the size of the set of values.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import distinct_address_ratio
from repro.analysis.reuse import working_set_sizes
from repro.baselines.generic import compress_raw, decompress_raw
from repro.baselines.unshuffle import unshuffle_inverse, unshuffle_transform
from repro.core.atc import MODE_LOSSY, compress_trace
from repro.core.bytesort import bytesort_inverse, bytesort_transform
from repro.core.container import deserialize_interval_trace, serialize_interval_trace
from repro.core.histograms import (
    IntervalSummary,
    apply_translation,
    byte_histograms,
    byte_translation,
    histogram_distance,
    interval_distance,
    translation_active_mask,
)
from repro.core.intervals import ChunkTable, materialize_interval
from repro.core.lossless import LosslessCodec
from repro.core.lossy import LossyConfig, LossyIntervalEncoder
from repro.traces.trace import AddressTrace, distinct_count

_addresses = st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=400)
_small_addresses = st.lists(
    st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=400
)

# Intervals for the planner oracles: empty (all-zero histogram rows), one
# address, one address repeated, addresses drawn from a small pool (so byte
# planes repeat and tie), and seeded random intervals of up to 3000 addresses
# below 2**bits, whose many unequal histogram bins make the order of the
# distance sums matter.
_pool = st.integers(min_value=0, max_value=(1 << 64) - 1)
_intervals = st.one_of(
    st.just([]),
    st.lists(_pool, min_size=1, max_size=1),
    st.builds(lambda value, count: [value] * count, _pool, st.integers(min_value=2, max_value=64)),
    st.lists(_pool, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=64)
    ),
    st.lists(_pool, min_size=2, max_size=64),
    st.builds(
        lambda seed, size, bits: np.random.default_rng(seed)
        .integers(0, 1 << bits, size, dtype=np.uint64, endpoint=False)
        .tolist(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=64),
    ),
)


def _summary(values) -> IntervalSummary:
    return IntervalSummary.from_addresses(np.array(values, dtype=np.uint64))


def _lossy_container(tmp_path_factory, array, config):
    """Compress ``array`` into a fresh lossy container; returns its decoder."""
    directory = tmp_path_factory.mktemp("prop") / "container"
    return compress_trace(array, directory, mode=MODE_LOSSY, config=config)


class TestLosslessPathsAreExact:
    @settings(max_examples=40, deadline=None)
    @given(_addresses, st.integers(min_value=1, max_value=100))
    def test_bytesort_then_unshuffle_compose(self, values, buffer_addresses):
        """Applying both reversible transforms in sequence still roundtrips."""
        array = np.array(values, dtype=np.uint64)
        transformed = bytesort_transform(array, buffer_addresses)
        recovered = bytesort_inverse(transformed, buffer_addresses)
        assert np.array_equal(recovered, array)
        unshuffled = unshuffle_transform(array, buffer_addresses)
        assert np.array_equal(unshuffle_inverse(unshuffled, buffer_addresses), array)

    @settings(max_examples=25, deadline=None)
    @given(_addresses)
    def test_full_lossless_codec(self, values):
        array = np.array(values, dtype=np.uint64)
        codec = LosslessCodec(buffer_addresses=64, backend="zlib")
        assert np.array_equal(codec.decompress(codec.compress(array)), array)

    @settings(max_examples=25, deadline=None)
    @given(_addresses)
    def test_raw_baseline(self, values):
        array = np.array(values, dtype=np.uint64)
        assert np.array_equal(decompress_raw(compress_raw(array, "zlib"), "zlib"), array)


class TestLossyInvariants:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_small_addresses, st.integers(min_value=10, max_value=200))
    def test_length_preserved_and_chunks_consistent(
        self, tmp_path_factory, values, interval_length
    ):
        array = np.array(values, dtype=np.uint64)
        config = LossyConfig(interval_length=interval_length, chunk_buffer_addresses=256, backend="zlib")
        decoder = _lossy_container(tmp_path_factory, array, config)
        approx = decoder.read_all()
        num_chunks = len(decoder.container.chunk_ids())
        assert approx.size == array.size
        assert num_chunks <= max(len(decoder.records), 1)
        referenced = {record.chunk_id for record in decoder.records}
        if referenced:
            assert max(referenced) < num_chunks
        assert sum(record.length for record in decoder.records) == array.size

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_small_addresses, st.integers(min_value=10, max_value=200))
    def test_first_interval_always_exact(self, tmp_path_factory, values, interval_length):
        array = np.array(values, dtype=np.uint64)
        config = LossyConfig(interval_length=interval_length, chunk_buffer_addresses=256, backend="zlib")
        approx = _lossy_container(tmp_path_factory, array, config).read_all()
        first = min(interval_length, array.size)
        assert np.array_equal(approx[:first], array[:first])

    @settings(max_examples=25, deadline=None)
    @given(_small_addresses, _small_addresses)
    def test_translation_never_merges_distinct_addresses(self, values_a, values_b):
        interval_a = np.array(values_a, dtype=np.uint64)
        interval_b = np.array(values_b, dtype=np.uint64)
        translations = byte_translation(
            IntervalSummary.from_addresses(interval_a), IntervalSummary.from_addresses(interval_b)
        )
        translated = apply_translation(interval_a, translations)
        assert np.unique(translated).size == np.unique(interval_a).size

    @settings(max_examples=20, deadline=None)
    @given(_small_addresses)
    def test_disabling_translation_still_preserves_length(self, tmp_path_factory, values):
        array = np.array(values, dtype=np.uint64)
        config = LossyConfig(
            interval_length=64, chunk_buffer_addresses=64, backend="zlib", enable_translation=False
        )
        assert _lossy_container(tmp_path_factory, array, config).read_all().size == array.size


class TestContainerSerialisation:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_small_addresses, st.integers(min_value=16, max_value=128))
    def test_interval_trace_serialisation_roundtrip(self, values, interval_length):
        array = np.array(values, dtype=np.uint64)
        config = LossyConfig(interval_length=interval_length, chunk_buffer_addresses=128, backend="zlib")
        planner = LossyIntervalEncoder(config)
        records = [
            planner.plan_interval(array[start : start + interval_length])[0]
            for start in range(0, array.size, interval_length)
        ]
        recovered = deserialize_interval_trace(serialize_interval_trace(records))
        assert len(recovered) == len(records)
        for original, roundtripped in zip(records, recovered):
            assert original.kind == roundtripped.kind
            assert original.chunk_id == roundtripped.chunk_id
            assert original.length == roundtripped.length
            if original.kind == "imitate":
                assert np.array_equal(original.translations, roundtripped.translations)
                assert np.array_equal(original.active_bytes, roundtripped.active_bytes)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_small_addresses)
    def test_container_matches_planner_replay(self, tmp_path_factory, values):
        """The container decodes to the planner's records replayed against
        the original chunk intervals: chunk payloads, INFO and the decoder
        add nothing and lose nothing."""
        array = np.array(values, dtype=np.uint64)
        config = LossyConfig(interval_length=97, chunk_buffer_addresses=128, backend="zlib")
        planner = LossyIntervalEncoder(config)
        chunks, pieces = {}, []
        for start in range(0, array.size, config.interval_length):
            interval = array[start : start + config.interval_length]
            record, needs_payload = planner.plan_interval(interval)
            if needs_payload:
                chunks[record.chunk_id] = interval
            pieces.append(materialize_interval(record, chunks[record.chunk_id]))
        decoder = _lossy_container(tmp_path_factory, array, config)
        assert np.array_equal(decoder.read_all(), np.concatenate(pieces))


class TestPlannerMatchesScalarOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_intervals, min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
        _intervals,
        st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_best_match_is_the_interval_distance_scan(self, pool, picks, probe, max_entries):
        """Chunks drawn with repeats from a small pool (so histograms tie);
        after every add the table's answer is the first minimum of
        ``interval_distance`` over the resident chunks, oldest first."""
        summaries = [_summary(pool[pick % len(pool)]) for pick in picks]
        probe_summary = _summary(probe)
        table = ChunkTable(max_entries=max_entries)
        for chunk_id, summary in enumerate(summaries):
            table.add(chunk_id, summary)
            first = 0 if max_entries is None else max(0, chunk_id + 1 - max_entries)
            resident = list(range(first, chunk_id + 1))
            assert table.chunk_ids == tuple(resident)
            best_id, best_distance = None, None
            for candidate in resident:
                distance = interval_distance(summaries[candidate], probe_summary)
                if best_distance is None or distance < best_distance:
                    best_id, best_distance = candidate, distance
            match = table.best_match(probe_summary)
            assert (match.chunk_id, match.distance) == (best_id, best_distance)

    @settings(max_examples=60, deadline=None)
    @given(_intervals)
    def test_byte_histograms_count_each_byte_plane(self, values):
        array = np.array(values, dtype=np.uint64)
        expected = np.stack(
            [
                np.bincount(((array >> np.uint64(8 * j)) & np.uint64(0xFF)).astype(np.intp), minlength=256)
                for j in range(8)
            ]
        )
        assert np.array_equal(byte_histograms(array), expected)

    @settings(max_examples=60, deadline=None)
    @given(_intervals, _intervals, st.floats(min_value=0.0, max_value=2.0))
    def test_translations_follow_their_row_definitions(self, values_a, values_b, threshold):
        source, target = _summary(values_a), _summary(values_b)
        expected = np.empty((8, 256), dtype=np.uint8)
        for j in range(8):
            expected[j, source.permutations[j]] = target.permutations[j]
        assert np.array_equal(byte_translation(source, target), expected)
        active = [
            histogram_distance(source.histograms[j], target.histograms[j]) > threshold
            for j in range(8)
        ]
        assert translation_active_mask(source, target, threshold).tolist() == active


class TestDistinctCountMatchesSetOracle:
    @settings(max_examples=100, deadline=None)
    @given(_intervals, _intervals)
    @example([], [])
    @example([7], [])
    @example([(1 << 64) - 1] * 9, [0])
    @example([0, (1 << 64) - 1, 1 << 63, (1 << 64) - 1], [1 << 63])
    def test_counts_are_set_sizes(self, values, others):
        """Empty, single, all-equal, pooled and full-range ``uint64`` input."""
        array = np.array(values, dtype=np.uint64)
        assert distinct_count(array) == len(set(values))
        assert AddressTrace(array).distinct_addresses() == len(set(values))
        exact = np.array(others, dtype=np.uint64)
        if others:
            assert distinct_address_ratio(array, exact) == len(set(values)) / len(set(others))
        else:
            assert distinct_address_ratio(array, exact) == (1.0 if not values else float("inf"))

    @settings(max_examples=60, deadline=None)
    @given(_intervals, st.integers(min_value=1, max_value=70))
    @example(list(range(10)) * 3, 7)
    def test_working_set_windows_are_set_sizes(self, values, window):
        """Including a last window shorter than ``window``."""
        expected = [len(set(values[start : start + window])) for start in range(0, len(values), window)]
        assert working_set_sizes(np.array(values, dtype=np.uint64), window) == expected
