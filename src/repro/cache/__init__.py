"""CPU cache hierarchy and prefetchers."""

from repro.cache.hierarchy import AccessResult, CacheHierarchy, CacheHierarchyConfig
from repro.cache.prefetch import PrefetchEngine, PrefetcherConfig
from repro.cache.set_assoc import CacheLevelConfig, SetAssociativeCache

__all__ = [
    "AccessResult",
    "CacheHierarchy",
    "CacheHierarchyConfig",
    "PrefetchEngine",
    "PrefetcherConfig",
    "CacheLevelConfig",
    "SetAssociativeCache",
]
