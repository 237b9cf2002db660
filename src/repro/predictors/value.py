"""Value predictors of the VPC/TCgen-style baseline compressor.

The TCgen specification used in the paper's Table 1 is::

    64-Bit Field 1: DFCM3[2], FCM3[3], FCM2[3], FCM1[3]

i.e. a differential finite-context-method predictor of order 3 and
finite-context-method predictors of orders 3, 2 and 1, each with a small
number of candidate values per context.  One context table serves all four:
:class:`FiniteContextPredictor` is the FCM, and
:class:`DifferentialFiniteContextPredictor` runs one over the stream of
deltas between consecutive values.

Both predictors have the same tiny interface:

* ``predictions() -> tuple`` — the candidate values for the next input, most
  confident first (may be empty before warm-up);
* ``update(value)`` — observe the actual value.

Predictors are *deterministic* and evolve identically during compression
and decompression — that is the Shannon-1951 construction the VPC family is
built on (see Section 3 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["FiniteContextPredictor", "DifferentialFiniteContextPredictor"]

_MASK64 = (1 << 64) - 1


class FiniteContextPredictor:
    """FCM(order): hash the last ``order`` values, remember recent successors.

    Each context keeps the ``depth`` most recently seen successor values
    (most recent first), the classic FCM[depth] arrangement of VPC/TCgen.
    ``table_bits`` bounds the context table like the hardware-style hash
    tables TCgen generates.

    Example:
        >>> predictor = FiniteContextPredictor(order=1, depth=2)
        >>> for value in (5, 10, 5, 20, 5):
        ...     predictor.update(value)
        >>> predictor.predictions()
        (20, 10)
    """

    def __init__(self, order: int, depth: int = 3, table_bits: int = 16) -> None:
        if order < 1:
            raise ConfigurationError("order must be >= 1")
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        self.order = order
        self.depth = depth
        self._table_size = 1 << table_bits
        self._table: Dict[int, List[int]] = {}
        self._history: List[int] = []
        # Table row of the last ``order`` values; None before warm-up.
        self._row: Optional[int] = None

    def predictions(self) -> Tuple[int, ...]:
        if self._row is None:
            return ()
        return tuple(self._table.get(self._row, ()))

    def update(self, value: int) -> None:
        value &= _MASK64
        if self._row is not None:
            successors = self._table.setdefault(self._row, [])
            if value in successors:
                successors.remove(value)
            successors.insert(0, value)
            del successors[self.depth :]
        history = self._history
        history.append(value)
        del history[: -self.order]
        if len(history) == self.order:
            key = 0
            for past in history:
                key = (key * 0x9E3779B97F4A7C15 + past) & _MASK64
            self._row = key % self._table_size


class DifferentialFiniteContextPredictor:
    """DFCM(order): an FCM over value *deltas*, prediction is ``last + delta``.

    Example:
        >>> predictor = DifferentialFiniteContextPredictor(order=2, depth=1)
        >>> for value in (0, 8, 16, 24):
        ...     predictor.update(value)
        >>> predictor.predictions()
        (32,)
    """

    def __init__(self, order: int, depth: int = 2, table_bits: int = 16) -> None:
        self._deltas = FiniteContextPredictor(order, depth, table_bits)
        self._last: Optional[int] = None

    def predictions(self) -> Tuple[int, ...]:
        last = self._last
        return tuple((last + delta) & _MASK64 for delta in self._deltas.predictions())

    def update(self, value: int) -> None:
        value &= _MASK64
        if self._last is not None:
            self._deltas.update(value - self._last)
        self._last = value
