"""Persistence programming layer: allocation, persistency models, logging."""

from repro.persist.allocator import PmHeap, RegionAllocator
from repro.persist.crash import CrashReport, CrashSimulator, DurabilityChecker, FaultMode
from repro.persist.log import LogRecord, RedoLog
from repro.persist.persistency import FenceKind, FlushKind, PersistencyModel

__all__ = [
    "PmHeap",
    "RegionAllocator",
    "CrashReport",
    "CrashSimulator",
    "DurabilityChecker",
    "FaultMode",
    "LogRecord",
    "RedoLog",
    "FenceKind",
    "FlushKind",
    "PersistencyModel",
]
