"""Byte histograms, sorted byte-histograms and byte translations (Section 5.1).

The lossy half of ATC summarises each interval of ``L`` consecutive 64-bit
addresses by eight *byte histograms*: ``h[j](i)`` is the number of addresses
in the interval whose byte of order ``j`` equals ``i``.  Sorting each
histogram in decreasing order (stably, so ties are broken by byte value)
yields the *sorted byte-histograms* ``h'[j]`` and the permutations ``p[j]``
such that ``h'[j](i) = h[j](p[j](i))``.

Two intervals "look like each other" when the distance

    D(A, B) = max_j  (1/L) * sum_i | h'_A[j](i) - h'_B[j](i) |

is below a threshold ``eps``.  When interval ``B`` is imitated by a stored
chunk ``A``, the byte translation ``t[j](p_A[j](i)) = p_B[j](i)`` remaps
``A``'s byte values onto ``B``'s: the most frequent byte value of order
``j`` in ``A`` becomes the most frequent byte value of order ``j`` in ``B``,
the second most frequent maps to the second most frequent, and so on.
Because each ``t[j]`` is a permutation of ``[0, 255]``, distinct addresses
of ``A`` stay distinct after translation, which preserves the temporal
structure (and in particular the number of distinct addresses — the fix for
the "myopic interval" problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.traces.trace import ADDRESS_BYTES, as_address_array

__all__ = [
    "byte_histograms",
    "sort_histograms",
    "histogram_distance",
    "IntervalSummary",
    "interval_distance",
    "byte_translation",
    "translation_active_mask",
    "apply_translation",
    "identity_translation",
]


def byte_histograms(addresses) -> np.ndarray:
    """Return the ``(8, 256)`` array of byte-value counts of an interval.

    Row ``j`` is the histogram of byte order ``j`` (``j = 0`` is the least
    significant byte), so ``histograms[j].sum() == len(addresses)``.  A byte
    plane that holds one value (the high bytes of block addresses, typically
    half the planes of an interval) is counted without a ``bincount``.
    """
    values = as_address_array(addresses)
    histograms = np.zeros((ADDRESS_BYTES, 256), dtype=np.int64)
    if values.size == 0:
        return histograms
    columns = values.view(np.uint8).reshape(values.size, ADDRESS_BYTES)
    # Byte j of the OR of every address XOR the first is zero iff plane j is constant.
    varying = np.bitwise_or.reduce(values ^ values[0], keepdims=True).view(np.uint8)
    for j in range(ADDRESS_BYTES):
        if varying[j]:
            histograms[j] = np.bincount(columns[:, j], minlength=256)
        else:
            histograms[j, columns[0, j]] = values.size
    return histograms


def sort_histograms(histograms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort each byte histogram in decreasing order.

    Returns ``(sorted_histograms, permutations)`` where
    ``sorted_histograms[j, i] == histograms[j, permutations[j, i]]`` and
    ``permutations[j]`` is the paper's ``p[j]``: byte values ordered by
    decreasing count, ties broken by increasing byte value (the stable-sort
    requirement of equation (1)).
    """
    if histograms.shape != (ADDRESS_BYTES, 256):
        raise CodecError(f"expected an (8, 256) histogram array, got {histograms.shape}")
    permutations = np.argsort(-histograms, axis=1, kind="stable").astype(np.int64)
    sorted_histograms = np.take_along_axis(histograms, permutations, axis=1)
    return sorted_histograms, permutations


def histogram_distance(histogram_a: np.ndarray, histogram_b: np.ndarray) -> float:
    """Normalised L1 distance between two byte histograms.

    The paper defines ``d(hA, hB) = (1/L) * sum |hA(i) - hB(i)|`` for two
    intervals of the same length ``L``; here each histogram is normalised by
    its own total so the definition extends to a short tail interval, and
    coincides with the paper's for equal lengths.  The result lies in
    ``[0, 2]``.
    """
    total_a = float(histogram_a.sum())
    total_b = float(histogram_b.sum())
    if total_a == 0.0 and total_b == 0.0:
        return 0.0
    normalised_a = histogram_a / total_a if total_a else np.zeros_like(histogram_a, dtype=float)
    normalised_b = histogram_b / total_b if total_b else np.zeros_like(histogram_b, dtype=float)
    return float(np.abs(normalised_a - normalised_b).sum())


def _normalised_rows(histograms: np.ndarray) -> np.ndarray:
    """Divide each histogram row by its own total (all-zero rows stay zero).

    Element for element this is the normalisation :func:`histogram_distance`
    applies, so distances computed from these rows are bit-identical to it.
    """
    totals = histograms.sum(axis=-1, keepdims=True)
    return np.divide(histograms, totals, out=np.zeros(histograms.shape), where=totals != 0)


@dataclass(frozen=True)
class IntervalSummary:
    """All the per-interval state the lossy codec keeps about an interval.

    Attributes:
        length: Number of addresses in the interval.
        histograms: ``(8, 256)`` raw byte histograms.
        sorted_histograms: ``(8, 256)`` histograms sorted in decreasing order.
        permutations: ``(8, 256)`` byte-value permutations ``p[j]``.
    """

    length: int
    histograms: np.ndarray
    sorted_histograms: np.ndarray
    permutations: np.ndarray

    @classmethod
    def from_addresses(cls, addresses) -> "IntervalSummary":
        """Summarise one interval of addresses."""
        values = as_address_array(addresses)
        histograms = byte_histograms(values)
        sorted_histograms, permutations = sort_histograms(histograms)
        return cls(
            length=int(values.size),
            histograms=histograms,
            sorted_histograms=sorted_histograms,
            permutations=permutations,
        )

    def distance(self, other: "IntervalSummary") -> float:
        """The paper's interval distance ``D`` (equation (2))."""
        return interval_distance(self, other)


def interval_distance(summary_a: IntervalSummary, summary_b: IntervalSummary) -> float:
    """``D(A, B) = max_j d(h'_A[j], h'_B[j])`` over the eight byte orders."""
    worst = 0.0
    for j in range(ADDRESS_BYTES):
        worst = max(
            worst,
            histogram_distance(summary_a.sorted_histograms[j], summary_b.sorted_histograms[j]),
        )
    return worst


def byte_translation(source: IntervalSummary, target: IntervalSummary) -> np.ndarray:
    """Byte translations ``t[j]`` mapping chunk A's bytes onto interval B's.

    ``t[j][p_A[j](i)] = p_B[j](i)``: the i-th most frequent byte value of
    order ``j`` in the source (the stored chunk) is replaced with the i-th
    most frequent byte value of order ``j`` in the target (the interval
    being imitated).  Each row is a permutation of 0..255.
    """
    translations = np.empty((ADDRESS_BYTES, 256), dtype=np.uint8)
    translations[np.arange(ADDRESS_BYTES)[:, None], source.permutations] = target.permutations
    return translations


def identity_translation() -> np.ndarray:
    """The no-op byte translation (used when translation is disabled)."""
    return np.tile(np.arange(256, dtype=np.uint8), (ADDRESS_BYTES, 1))


def translation_active_mask(
    source: IntervalSummary, target: IntervalSummary, threshold: float
) -> np.ndarray:
    """Which byte orders actually need translating.

    The paper translates byte order ``j`` "only if the distance
    ``d(hA[j], hB[j])`` between the non-sorted histograms ... is greater
    than the threshold", which minimises distortion when a byte order
    already matches.
    """
    distances = np.abs(_normalised_rows(source.histograms) - _normalised_rows(target.histograms)).sum(axis=1)
    return distances > threshold


def apply_translation(
    addresses,
    translations: np.ndarray,
    active: Optional[Sequence[bool]] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply byte translations ``t[j]`` to every address of a chunk.

    The addresses are copied once into the output, and each active byte
    column of that copy is then looked up in its row of the table; the
    input is never written.

    Args:
        addresses: The chunk's addresses (the imitating interval ``A``).
        translations: ``(8, 256)`` byte translation table.
        active: Optional per-byte-order mask; inactive orders are untouched.
        out: Optional C-contiguous ``uint64`` array of the input's length to
            write the result into.

    Returns:
        The translated addresses (same length, dtype ``uint64``): ``out``
        when given, else a new array.
    """
    values = as_address_array(addresses)
    if translations.shape != (ADDRESS_BYTES, 256):
        raise CodecError(f"expected an (8, 256) translation table, got {translations.shape}")
    active_mask = np.ones(ADDRESS_BYTES, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if active_mask.shape != (ADDRESS_BYTES,):
        raise CodecError("active mask must have one flag per byte order")
    if out is None:
        out = values.copy()
    else:
        _check_out(out, values.size)
        out[...] = values
    if values.size:
        columns = out.view(np.uint8).reshape(values.size, ADDRESS_BYTES)
        table = translations.astype(np.uint8, copy=False)
        for j in np.flatnonzero(active_mask):
            columns[:, j] = table[j].take(columns[:, j])
    return out


def _check_out(out: np.ndarray, size: int) -> None:
    """Refuse an ``out=`` array that cannot hold ``size`` addresses in place."""
    if (
        not isinstance(out, np.ndarray)
        or out.dtype != np.uint64
        or out.shape != (size,)
        or not out.flags.c_contiguous
        or not out.flags.writeable
    ):
        raise CodecError(f"out must be a writable contiguous uint64 array of {size} addresses")
