"""Baseline compressors the paper compares against (Table 1's bz2 and us columns)."""

from repro.baselines.generic import compress_raw, decompress_raw, raw_bits_per_address
from repro.baselines.unshuffle import (
    compress_unshuffled,
    decompress_unshuffled,
    unshuffle_inverse,
    unshuffle_transform,
    unshuffled_bits_per_address,
)

__all__ = [
    "compress_raw",
    "decompress_raw",
    "raw_bits_per_address",
    "compress_unshuffled",
    "decompress_unshuffled",
    "unshuffle_transform",
    "unshuffle_inverse",
    "unshuffled_bits_per_address",
]
