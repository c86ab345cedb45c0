"""Shared building blocks: constants, units, errors, deterministic RNG."""

from repro.common.constants import (
    CACHELINE_SIZE,
    CACHELINES_PER_XPLINE,
    FULL_XPLINE_MASK,
    MAX_AMPLIFICATION,
    XPLINE_SIZE,
    cacheline_base,
    cacheline_index,
    cacheline_slot_in_xpline,
    is_cacheline_aligned,
    is_xpline_aligned,
    xpline_base,
    xpline_index,
)
from repro.common.errors import (
    AddressError,
    AllocationError,
    ConfigError,
    DataStoreError,
    KeyNotFoundError,
    RecoveryError,
    ReproError,
)
from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.common.units import GIB, KIB, MIB, fmt_size, gib, kib, mib, parse_size

__all__ = [
    "CACHELINE_SIZE",
    "CACHELINES_PER_XPLINE",
    "FULL_XPLINE_MASK",
    "MAX_AMPLIFICATION",
    "XPLINE_SIZE",
    "cacheline_base",
    "cacheline_index",
    "cacheline_slot_in_xpline",
    "is_cacheline_aligned",
    "is_xpline_aligned",
    "xpline_base",
    "xpline_index",
    "AddressError",
    "AllocationError",
    "ConfigError",
    "DataStoreError",
    "KeyNotFoundError",
    "RecoveryError",
    "ReproError",
    "DEFAULT_SEED",
    "DeterministicRng",
    "GIB",
    "KIB",
    "MIB",
    "fmt_size",
    "gib",
    "kib",
    "mib",
    "parse_size",
]
