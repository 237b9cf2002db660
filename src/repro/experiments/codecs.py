"""Codec-cell evaluation: one resolved codec spec applied to one trace.

:func:`evaluate_codec` is the single implementation behind both the
declarative sweep runner and :class:`~repro.analysis.harness.
EvaluationHarness`'s hand-driven Table 1/3 comparisons — the harness builds
:class:`~repro.experiments.spec.CodecSpec` cells and calls this function, so
a spec-driven sweep and the harness produce identical numbers by
construction.

Every kind reports the same two measurements: the compressed payload size in
bytes and the resulting bits per address.  The payload definitions match the
paper's tables:

* ``raw`` — the 8-byte-per-address representation through the back-end
  alone (Table 1's "bz2" column);
* ``unshuffle`` — byte-unshuffled then back-end compressed (Table 1 "us");
* ``vpc`` — the VPC/TCgen-style predictor compressor (Table 1 "tcg");
* ``lossless`` — the paper's lossless ATC (Table 1 "bs" columns; the
  buffer size selects small vs big);
* ``lossy`` — the phase-based lossy ATC codec (Table 3 "lossy").

The two ATC kinds measure the container ``repro compress`` writes: the trace
is compressed into a scratch directory and the payload is the container's
on-disk size (chunk files plus the INFO stream with its digests).

Example:
    >>> import numpy as np
    >>> from repro.experiments.spec import CodecSpec, EvaluationScale
    >>> addresses = np.arange(4000, dtype=np.uint64) % 257
    >>> result = evaluate_codec(CodecSpec(kind="lossless"), addresses, EvaluationScale())
    >>> sorted(result)
    ['bits_per_address', 'payload_bytes']
    >>> result["payload_bytes"] > 0
    True
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.atc import MODE_LOSSLESS, MODE_LOSSY, _container_round_trip
from repro.core.lossy import LossyConfig
from repro.errors import ConfigurationError
from repro.experiments.spec import CodecSpec, EvaluationScale

__all__ = ["evaluate_codec", "resolve_lossy_config"]


def resolve_lossy_config(codec: CodecSpec, scale: EvaluationScale) -> LossyConfig:
    """The :class:`~repro.core.lossy.LossyConfig` of a ``lossless`` or ``lossy`` cell.

    Codec fields override the scale; unset fields inherit
    ``scale.interval_length`` / ``scale.threshold`` / ``scale.small_buffer``.
    A ``lossless`` container uses only ``chunk_buffer_addresses`` and
    ``backend``.
    """
    return LossyConfig(
        interval_length=(
            codec.interval_length if codec.interval_length is not None else scale.interval_length
        ),
        threshold=codec.threshold if codec.threshold is not None else scale.threshold,
        chunk_buffer_addresses=(
            codec.buffer_addresses if codec.buffer_addresses is not None else scale.small_buffer
        ),
        backend=codec.backend,
        enable_translation=codec.enable_translation,
    )


def _payload_bytes(codec: CodecSpec, addresses: np.ndarray, scale: EvaluationScale) -> int:
    buffer_addresses = (
        codec.buffer_addresses if codec.buffer_addresses is not None else scale.small_buffer
    )
    if codec.kind == "raw":
        from repro.baselines.generic import compress_raw

        return len(compress_raw(addresses, backend=codec.backend))
    if codec.kind == "unshuffle":
        from repro.baselines.unshuffle import compress_unshuffled

        return len(compress_unshuffled(addresses, buffer_addresses, backend=codec.backend))
    if codec.kind == "vpc":
        from repro.predictors.vpc import VpcCodec

        return len(VpcCodec().compress(addresses))
    if codec.kind in ("lossless", "lossy"):
        mode = MODE_LOSSLESS if codec.kind == "lossless" else MODE_LOSSY
        with _container_round_trip(addresses, mode, resolve_lossy_config(codec, scale)) as decoder:
            return decoder.compressed_bytes()
    raise ConfigurationError(f"unknown codec kind {codec.kind!r}")  # pragma: no cover


def evaluate_codec(
    codec: CodecSpec, addresses, scale: Optional[EvaluationScale] = None
) -> Dict[str, float]:
    """Measure one codec cell on one (already filtered) address trace.

    Args:
        codec: The codec cell to evaluate.
        addresses: The cache-filtered trace (any ``uint64`` array-like).
        scale: Scale defaults for parameters the codec leaves unset.

    Returns:
        ``{"payload_bytes": int, "bits_per_address": float}``.
    """
    from repro.traces.trace import as_address_array

    scale = scale if scale is not None else EvaluationScale()
    values = as_address_array(addresses)
    if values.size == 0:
        return {"payload_bytes": 0, "bits_per_address": 0.0}
    payload = _payload_bytes(codec, values, scale)
    return {
        "payload_bytes": int(payload),
        "bits_per_address": 8.0 * payload / int(values.size),
    }
