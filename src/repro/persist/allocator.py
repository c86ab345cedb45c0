"""Persistent-memory allocator over a simulated region.

Data structures (CCEH, the B+-tree, linked lists) need addresses in a
mapped region.  :class:`RegionAllocator` is a bump allocator with
size-class free lists — enough to support allocate/free churn in the
case studies while keeping placement deterministic (allocation order
fully determines layout, which the experiments rely on).
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import AllocationError
from repro.system.machine import Machine


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class RegionAllocator:
    """Bump-plus-freelist allocator for one memory region."""

    def __init__(self, machine: Machine, region: str = "pm") -> None:
        """Bind the allocator to one named region of ``machine``."""
        spec = machine.region_spec(region)
        self.machine = machine
        self.region_name = region
        self.base = spec.base
        self.end = spec.end
        self._cursor = spec.base
        self._free_lists: dict[int, list[int]] = {}
        self.allocated_bytes = 0
        self.freed_bytes = 0

    def alloc(self, size: int, align: int = CACHELINE_SIZE) -> int:
        """Allocate ``size`` bytes aligned to ``align``; returns the address."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise AllocationError(f"alignment must be a positive power of two, got {align}")
        size = _align_up(size, align)
        free_list = self._free_lists.get(size)
        if free_list:
            addr = free_list.pop()
            if addr % align == 0:
                self.allocated_bytes += size
                return addr
            free_list.append(addr)
        addr = _align_up(self._cursor, align)
        if addr + size > self.end:
            raise AllocationError(
                f"region {self.region_name!r} exhausted: need {size} bytes at {addr:#x}"
            )
        self._cursor = addr + size
        self.allocated_bytes += size
        return addr

    def alloc_xpline(self, size: int = XPLINE_SIZE) -> int:
        """Allocate XPLine-aligned memory (the granularity-matching case)."""
        return self.alloc(size, align=XPLINE_SIZE)

    def free(self, addr: int, size: int, align: int = CACHELINE_SIZE) -> None:
        """Return a block to the size-class free list."""
        size = _align_up(size, align)
        if not (self.base <= addr < self.end):
            raise AllocationError(f"free of {addr:#x} outside region {self.region_name!r}")
        self._free_lists.setdefault(size, []).append(addr)
        self.freed_bytes += size

    @property
    def bytes_in_use(self) -> int:
        """Live allocation footprint."""
        return self.allocated_bytes - self.freed_bytes


class PmHeap:
    """Paired PM and DRAM allocators, as persistent programs use them.

    Case studies place durable structures on PM and scratch state
    (DRAM address arrays, staging buffers, DRAM log mirrors) on DRAM.
    """

    def __init__(self, machine: Machine, pm_region: str = "pm", dram_region: str = "dram") -> None:
        """Create paired PM and DRAM allocators over ``machine``."""
        self.machine = machine
        self.pm = RegionAllocator(machine, pm_region)
        self.dram = RegionAllocator(machine, dram_region)
