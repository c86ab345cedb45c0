"""Exception hierarchy for the repro package.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch simulator problems without
masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A device or machine configuration is internally inconsistent."""


class AddressError(ReproError):
    """An access targeted an address outside any mapped region."""


class AllocationError(ReproError):
    """The persistent-memory allocator ran out of space or was misused."""


class DataStoreError(ReproError):
    """A persistent data structure (CCEH, B+-tree, ...) was misused."""


class KeyNotFoundError(DataStoreError, KeyError):
    """Lookup for a key that is not present in a data store."""


class RecoveryError(DataStoreError):
    """Crash-recovery found an inconsistency it cannot repair."""
