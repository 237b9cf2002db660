"""Cache substrate: set-associative caches and multi-config LRU simulation."""

from repro.cache.cache import CacheConfig, CacheStats, SetAssociativeCache, access_lanes
from repro.cache.stackdist import LruStackSimulator, MissRatioCurve, simulate_miss_curve
from repro.cache.sweep import DEFAULT_ASSOCIATIVITIES, MissRatioSurface, miss_ratio_sweep

__all__ = [
    "CacheConfig",
    "CacheStats",
    "SetAssociativeCache",
    "access_lanes",
    "LruStackSimulator",
    "MissRatioCurve",
    "simulate_miss_curve",
    "MissRatioSurface",
    "miss_ratio_sweep",
    "DEFAULT_ASSOCIATIVITIES",
]
