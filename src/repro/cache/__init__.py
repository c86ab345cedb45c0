"""CPU cache hierarchy and prefetchers."""

from repro.cache.hierarchy import AccessResult, CacheHierarchy, CacheHierarchyConfig
from repro.cache.prefetch import (
    AdjacentLinePrefetcher,
    DcuPrefetcher,
    PrefetchEngine,
    PrefetcherConfig,
    StreamPrefetcher,
)
from repro.cache.set_assoc import CacheLevelConfig, SetAssociativeCache

__all__ = [
    "AccessResult",
    "CacheHierarchy",
    "CacheHierarchyConfig",
    "AdjacentLinePrefetcher",
    "DcuPrefetcher",
    "PrefetchEngine",
    "PrefetcherConfig",
    "StreamPrefetcher",
    "CacheLevelConfig",
    "SetAssociativeCache",
]
