"""Tests of the value predictors used by the VPC/TCgen baseline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.predictors.value import DifferentialFiniteContextPredictor, FiniteContextPredictor

_MASK64 = (1 << 64) - 1


class _OracleFcm:
    """FCM written out directly: hash the history on every call."""

    def __init__(self, order, depth, table_bits):
        self.order, self.depth, self.size = order, depth, 1 << table_bits
        self.table, self.history = {}, []

    def _row(self):
        key = 0
        for value in self.history:
            key = (key * 0x9E3779B97F4A7C15 + value) & _MASK64
        return key % self.size

    def predictions(self):
        if len(self.history) < self.order:
            return ()
        return tuple(self.table.get(self._row(), ()))

    def update(self, value):
        if len(self.history) >= self.order:
            successors = self.table.setdefault(self._row(), [])
            if value in successors:
                successors.remove(value)
            successors.insert(0, value)
            del successors[self.depth :]
        self.history = (self.history + [value])[-self.order :]


class _OracleDfcm:
    """DFCM written out directly over its own delta table."""

    def __init__(self, order, depth, table_bits):
        self.deltas, self.last = _OracleFcm(order, depth, table_bits), None

    def predictions(self):
        if self.last is None:
            return ()
        return tuple((self.last + delta) & _MASK64 for delta in self.deltas.predictions())

    def update(self, value):
        if self.last is not None:
            self.deltas.update((value - self.last) & _MASK64)
        self.last = value


class TestFiniteContextPredictor:
    def test_learns_repeating_sequence(self):
        predictor = FiniteContextPredictor(order=2, depth=1)
        pattern = [1, 2, 3, 1, 2, 3, 1, 2]
        for value in pattern:
            predictor.update(value)
        # Context (1, 2) has always been followed by 3.
        assert predictor.predictions() == (3,)

    def test_no_prediction_before_warmup(self):
        predictor = FiniteContextPredictor(order=3)
        predictor.update(1)
        predictor.update(2)
        assert predictor.predictions() == ()

    def test_depth_keeps_multiple_candidates(self):
        predictor = FiniteContextPredictor(order=1, depth=2)
        for value in (5, 10, 5, 20, 5):
            predictor.update(value)
        candidates = predictor.predictions()
        assert set(candidates) == {10, 20}
        assert candidates[0] == 20  # most recent successor first

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FiniteContextPredictor(order=0)
        with pytest.raises(ConfigurationError):
            FiniteContextPredictor(order=1, depth=0)


class TestDifferentialFiniteContextPredictor:
    def test_learns_stride_patterns(self):
        predictor = DifferentialFiniteContextPredictor(order=2, depth=1)
        values = [0, 8, 16, 24, 32, 40]
        for value in values:
            predictor.update(value)
        assert predictor.predictions() == (48,)

    def test_learns_alternating_deltas(self):
        predictor = DifferentialFiniteContextPredictor(order=2, depth=1)
        # Deltas alternate +1, +3: 0,1,4,5,8,9,12...
        values = [0, 1, 4, 5, 8, 9, 12]
        for value in values:
            predictor.update(value)
        assert predictor.predictions() == (13,)

    def test_no_prediction_before_warmup(self):
        predictor = DifferentialFiniteContextPredictor(order=3)
        predictor.update(1)
        assert predictor.predictions() == ()

    def test_deltas_wrap_modulo_2_64(self):
        predictor = DifferentialFiniteContextPredictor(order=1, depth=1)
        for value in (10, 2, 10, 2):  # deltas -8, +8, -8 (mod 2**64)
            predictor.update(value)
        assert predictor.predictions() == (10,)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DifferentialFiniteContextPredictor(order=0)


@settings(max_examples=60, deadline=None)
@given(
    differential=st.booleans(),
    order=st.integers(1, 4),
    depth=st.integers(1, 4),
    table_bits=st.integers(1, 16),
    values=st.lists(
        st.one_of(st.integers(0, 5), st.integers(0, _MASK64)), min_size=1, max_size=300
    ),
)
def test_predictions_match_the_direct_oracle(differential, order, depth, table_bits, values):
    """Small alphabets and tiny tables force hash collisions and hits at
    every depth; the cached table row and the DFCM-over-FCM composition
    must predict exactly what the direct formulation does."""
    kind, oracle_kind = (
        (DifferentialFiniteContextPredictor, _OracleDfcm)
        if differential
        else (FiniteContextPredictor, _OracleFcm)
    )
    predictor = kind(order, depth, table_bits)
    oracle = oracle_kind(order, depth, table_bits)
    for value in values:
        assert predictor.predictions() == oracle.predictions()
        predictor.update(value)
        oracle.update(value)
    assert predictor.predictions() == oracle.predictions()
