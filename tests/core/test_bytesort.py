"""Tests of the bytesort reversible transformation (paper Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bytesort import (
    bytesort_inverse,
    bytesort_inverse_window,
    bytesort_transform,
    bytesort_window,
    iter_windows,
)
from repro.errors import CodecError
from repro.traces.trace import ADDRESS_BYTES


class TestBytesortWindow:
    def test_empty_window_roundtrips(self):
        assert bytesort_window(np.empty(0, dtype=np.uint64)) == b""
        assert bytesort_inverse_window(b"").size == 0

    def test_single_address_roundtrips(self):
        values = np.array([0xDEADBEEFCAFEF00D], dtype=np.uint64)
        assert np.array_equal(bytesort_inverse_window(bytesort_window(values)), values)

    def test_output_size_is_eight_bytes_per_address(self, sequential_addresses):
        payload = bytesort_window(sequential_addresses)
        assert len(payload) == ADDRESS_BYTES * sequential_addresses.size

    def test_roundtrip_sequential(self, sequential_addresses):
        payload = bytesort_window(sequential_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), sequential_addresses)

    def test_roundtrip_random(self, random_addresses):
        payload = bytesort_window(random_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), random_addresses)

    def test_roundtrip_with_duplicates(self, working_set_addresses):
        payload = bytesort_window(working_set_addresses)
        assert np.array_equal(bytesort_inverse_window(payload), working_set_addresses)

    def test_first_block_is_msb_in_original_order(self):
        values = np.array([0x0100000000000000, 0x0200000000000000, 0x0300000000000000], dtype=np.uint64)
        payload = bytesort_window(values)
        assert payload[:3] == bytes([0x01, 0x02, 0x03])

    def test_transform_is_a_byte_permutation(self, random_addresses):
        """Bytesort reorders bytes but never changes the multiset of bytes."""
        payload = bytesort_window(random_addresses)
        original = random_addresses.view(np.uint8)
        assert np.array_equal(
            np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256),
            np.bincount(original, minlength=256),
        )

    def test_section_4_1_worked_example(self):
        """The 384-address example of Section 4.1.

        Input: F200,F201,A100,F202,F203,A101,... (two interleaved regions).
        After bytesort, the low-order byte block must be 00..7F followed by
        00..FF because addresses are grouped by region (A1 region first,
        stable order preserved inside each region).
        """
        f2 = [0xF200 + i for i in range(256)]
        a1 = [0xA100 + i for i in range(128)]
        interleaved = []
        f2_index = a1_index = 0
        while f2_index < 256 or a1_index < 128:
            for _ in range(2):
                if f2_index < 256:
                    interleaved.append(f2[f2_index])
                    f2_index += 1
            if a1_index < 128:
                interleaved.append(a1[a1_index])
                a1_index += 1
        values = np.array(interleaved, dtype=np.uint64)
        payload = bytesort_window(values)
        count = values.size
        # Blocks are emitted MSB first; the last block is the low-order byte.
        low_block = payload[-count:]
        expected = bytes(range(128)) + bytes(range(256))
        assert low_block == expected
        # Second-to-last block: the byte of order 1 is emitted *before*
        # sorting by it, i.e. still in interleaved order F2,F2,A1,F2,F2,A1,...
        order1_block = payload[-2 * count : -count]
        assert order1_block == bytes((value >> 8) & 0xFF for value in interleaved)
        # And the whole thing still inverts exactly.
        assert np.array_equal(bytesort_inverse_window(payload), values)

    def test_figure_1_style_grouping(self):
        """Figure 1: interleaving two regions, bytesort exposes regularity.

        The check is the figure's point rather than its exact byte layout:
        the transform stays reversible and the transformed stream compresses
        at least as well as the raw interleaved bytes.
        """
        import zlib

        region_a = [0x00000000 + i * 0x4000 for i in range(512)]
        region_b = [0xFF000000 + i for i in range(512)]
        interleaved = [value for pair in zip(region_a, region_b) for value in pair]
        values = np.array(interleaved, dtype=np.uint64)
        payload = bytesort_window(values)
        assert np.array_equal(bytesort_inverse_window(payload), values)
        assert len(zlib.compress(payload, 9)) <= len(zlib.compress(values.tobytes(), 9))

    def test_rejects_partial_window(self):
        with pytest.raises(CodecError):
            bytesort_inverse_window(b"\x00" * 13)


class TestBytesortStreaming:
    def test_roundtrip_multiple_windows(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=1_000)
        assert np.array_equal(bytesort_inverse(payload, 1_000), random_addresses)

    def test_roundtrip_window_not_dividing_length(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=7_777)
        assert np.array_equal(bytesort_inverse(payload, 7_777), random_addresses)

    def test_buffer_larger_than_trace(self, sequential_addresses):
        payload = bytesort_transform(sequential_addresses, buffer_addresses=10**9)
        assert np.array_equal(bytesort_inverse(payload, 10**9), sequential_addresses)

    def test_mismatched_buffer_fails_or_differs(self, random_addresses):
        payload = bytesort_transform(random_addresses, buffer_addresses=1_000)
        recovered = bytesort_inverse(payload, 2_000)
        assert not np.array_equal(recovered, random_addresses)

    def test_invalid_buffer_size(self):
        with pytest.raises(CodecError):
            bytesort_transform(np.arange(10, dtype=np.uint64), buffer_addresses=0)
        with pytest.raises(CodecError):
            bytesort_inverse(b"", buffer_addresses=-1)

    def test_iter_windows_covers_everything(self):
        values = np.arange(25, dtype=np.uint64)
        windows = list(iter_windows(values, 10))
        assert [w.size for w in windows] == [10, 10, 5]
        assert np.array_equal(np.concatenate(windows), values)

    def test_iter_windows_rejects_bad_buffer(self):
        with pytest.raises(CodecError):
            list(iter_windows(np.arange(5, dtype=np.uint64), 0))


class TestBytesortProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=0, max_size=300)
    )
    def test_roundtrip_any_values(self, values):
        array = np.array(values, dtype=np.uint64)
        assert np.array_equal(bytesort_inverse_window(bytesort_window(array)), array)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=64),
    )
    def test_streaming_roundtrip_any_buffer(self, values, buffer_addresses):
        array = np.array(values, dtype=np.uint64)
        payload = bytesort_transform(array, buffer_addresses)
        assert np.array_equal(bytesort_inverse(payload, buffer_addresses), array)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=200))
    def test_length_preserved(self, values):
        array = np.array(values, dtype=np.uint64)
        assert len(bytesort_window(array)) == 8 * array.size


def _oracle_window(values: np.ndarray) -> bytes:
    """The column-major transform: gather byte ``j`` of every address by row index, sort all 7 keys."""
    count = int(values.size)
    if count == 0:
        return b""
    columns = values.view(np.uint8).reshape(count, ADDRESS_BYTES)
    out = np.empty((ADDRESS_BYTES, count), dtype=np.uint8)
    order = np.arange(count)
    for block_index in range(ADDRESS_BYTES):
        position = ADDRESS_BYTES - 1 - block_index
        column = columns[order, position]
        out[block_index] = column
        if position:
            order = order[np.argsort(column, kind="stable")]
    return out.tobytes()


def _oracle_inverse_window(payload: bytes) -> np.ndarray:
    """Invert :func:`_oracle_window` by scattering each block into its byte column."""
    count = len(payload) // ADDRESS_BYTES
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    blocks = np.frombuffer(payload, dtype=np.uint8).reshape(ADDRESS_BYTES, count)
    columns = np.empty((count, ADDRESS_BYTES), dtype=np.uint8)
    order = np.arange(count)
    for block_index in range(ADDRESS_BYTES):
        position = ADDRESS_BYTES - 1 - block_index
        block = blocks[block_index]
        columns[order, position] = block
        if position:
            order = order[np.argsort(block, kind="stable")]
    return columns.view("<u8").reshape(count).copy()


def _drawn_window(kind: str, count: int, seed: int) -> np.ndarray:
    """A window of ``count`` addresses of one shape the plane-skipping path must handle.

    ``odd-first``/``odd-middle``/``odd-last`` are all-equal windows with one
    address changed in its low bytes: every plane is constant except a
    plane whose first and last bytes agree when the odd one sits inside.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    if kind == "block-addresses":  # 42 significant bits: the high planes are constant
        return rng.integers(0, 1 << 42, size=count, dtype=np.uint64)
    if kind == "extremes":
        return rng.choice(np.array([0, (1 << 64) - 1], dtype=np.uint64), size=count)
    value = np.uint64(rng.integers(0, 1 << 64, dtype=np.uint64))
    values = np.full(count, value, dtype=np.uint64)
    if kind != "equal" and count:
        where = {"odd-first": 0, "odd-middle": count // 2, "odd-last": count - 1}[kind]
        values[where] ^= np.uint64(int(rng.integers(1, 1 << 16)))
    return values


_WINDOW_KINDS = ["random", "block-addresses", "extremes", "equal", "odd-first", "odd-middle", "odd-last"]


class TestBytesortOracle:
    """The plane-major, constant-plane-skipping transform against the column-major one."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(_WINDOW_KINDS),
        count=st.integers(min_value=0, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_window_matches_the_column_major_oracle(self, kind, count, seed):
        values = _drawn_window(kind, count, seed)
        payload = bytesort_window(values)
        assert payload == _oracle_window(values)
        decoded = bytesort_inverse_window(payload)
        assert decoded.dtype == np.uint64 and np.array_equal(decoded, values)
        assert np.array_equal(_oracle_inverse_window(payload), values)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(_WINDOW_KINDS),
        count=st.integers(min_value=0, max_value=5000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_streaming_matches_the_oracle_for_every_buffer(self, kind, count, seed, data):
        values = _drawn_window(kind, count, seed)
        buffer_addresses = data.draw(st.integers(min_value=1, max_value=count + 1))
        payload = bytesort_transform(values, buffer_addresses)
        expected = b"".join(
            _oracle_window(values[start : start + buffer_addresses])
            for start in range(0, count, buffer_addresses)
        )
        assert payload == expected
        assert np.array_equal(bytesort_inverse(payload, buffer_addresses), values)
        assert np.array_equal(bytesort_inverse(memoryview(payload), buffer_addresses), values)

    @pytest.mark.parametrize("kind", ["odd-first", "odd-middle", "odd-last"])
    def test_one_odd_address_in_constant_planes(self, kind):
        values = _drawn_window(kind, 1001, seed=7)
        payload = bytesort_window(values)
        assert payload == _oracle_window(values)
        assert np.array_equal(bytesort_inverse_window(payload), values)
