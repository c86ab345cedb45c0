"""Persistent circular linked list of XPLine-sized elements.

The paper's Section 3.6 working set (``working_set_unit_t``): each
element is one 256-byte, XPLine-aligned block whose first cacheline
holds the ``next`` pointer and whose remaining three cachelines are a
pad area.  The pointer and the updated pad data deliberately live in
*different* cachelines so persisting the pad never invalidates cached
pointers.

:class:`PointerChaseBench` uses a lighter-weight address-table variant
for the big sweeps; this class is the full data structure with
mutation support, used by examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import DataStoreError
from repro.common.rng import DeterministicRng
from repro.datastores.base import CoreLike
from repro.persist.allocator import RegionAllocator


@dataclass
class ListElement:
    """One 256-byte working-set element."""

    addr: int
    next_index: int

    @property
    def pointer_addr(self) -> int:
        """Cacheline 0: the next pointer."""
        return self.addr

    def pad_addr(self, pad_line: int = 1) -> int:
        """One of the three pad cachelines (1..3)."""
        if not 1 <= pad_line <= 3:
            raise DataStoreError("pad cacheline must be 1, 2 or 3")
        return self.addr + pad_line * CACHELINE_SIZE


class PersistentLinkedList:
    """Circular list of XPLine-aligned elements on PM."""

    def __init__(
        self,
        allocator: RegionAllocator,
        count: int,
        sequential: bool = True,
        seed: int = 7,
    ) -> None:
        if count <= 0:
            raise DataStoreError("list needs at least one element")
        self.sequential = sequential
        addrs = [allocator.alloc(XPLINE_SIZE, align=XPLINE_SIZE) for _ in range(count)]
        order = list(range(count))
        if not sequential:
            DeterministicRng(seed).shuffle(order)
        self.elements: list[ListElement] = []
        successor = [0] * count
        for position, element in enumerate(order):
            successor[element] = order[(position + 1) % count]
        for index in range(count):
            self.elements.append(ListElement(addr=addrs[index], next_index=successor[index]))

    def __len__(self) -> int:
        return len(self.elements)

    def traverse(self, core: CoreLike, start: int = 0, steps: int | None = None) -> int:
        """Pointer-chase ``steps`` elements (default: one full cycle).

        Returns the index where the walk stopped.
        """
        steps = len(self.elements) if steps is None else steps
        cursor = start
        for _ in range(steps):
            element = self.elements[cursor]
            core.load(element.pointer_addr, 8)
            cursor = element.next_index
        return cursor

    def update_pass(
        self,
        core: CoreLike,
        start: int = 0,
        steps: int | None = None,
        persist: bool = True,
        fence: str = "sfence",
        pad_line: int = 1,
    ) -> int:
        """The Figure 8 access pattern: chase + update one pad line each.

        With ``persist=False`` the pass runs under the relaxed model
        (caller fences at the end).
        """
        steps = len(self.elements) if steps is None else steps
        cursor = start
        for _ in range(steps):
            element = self.elements[cursor]
            core.load(element.pointer_addr, 8)
            core.store(element.pad_addr(pad_line), 8)
            core.clwb(element.pad_addr(pad_line))
            if persist:
                core.fence(fence)
            cursor = element.next_index
        if not persist:
            core.fence(fence)
        return cursor

    def verify_cycle(self) -> None:
        """Check the chain is one Hamiltonian cycle."""
        seen = set()
        cursor = 0
        for _ in range(len(self.elements)):
            if cursor in seen:
                raise DataStoreError("premature cycle in linked list")
            seen.add(cursor)
            cursor = self.elements[cursor].next_index
        if cursor != 0 or len(seen) != len(self.elements):
            raise DataStoreError("list does not form a single cycle")
