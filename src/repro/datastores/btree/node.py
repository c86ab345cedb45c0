"""B+-tree nodes in the FAST & FAIR layout (paper Section 4.2).

Nodes are 512-byte PM blocks: a header cacheline (entry count, leaf
flag, sibling pointer) followed by seven cachelines of sorted 16-byte
entries (8 B key + 8 B value/child pointer) — 28 entries per node.
Keys are kept sorted by shifting entries on insertion, which is
exactly the repeated read/flush-same-cacheline pattern whose
read-after-persist cost the case study measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.constants import CACHELINE_SIZE, cacheline_base

#: Node geometry.
NODE_BYTES = 512
HEADER_BYTES = CACHELINE_SIZE
ENTRY_SIZE = 16
NODE_CAPACITY = (NODE_BYTES - HEADER_BYTES) // ENTRY_SIZE  # 28


@dataclass
class Node:
    """One B+-tree node (leaf or internal)."""

    base_addr: int
    leaf: bool
    keys: list[int] = field(default_factory=list)
    #: Values for leaves; child Nodes for internals (len = len(keys)+1).
    values: list = field(default_factory=list)
    children: list["Node"] = field(default_factory=list)
    sibling: "Node | None" = None

    @property
    def count(self) -> int:
        """Number of keys stored."""
        return len(self.keys)

    @property
    def is_full(self) -> bool:
        """True when the node has no free entry slot."""
        return self.count >= NODE_CAPACITY

    @property
    def header_addr(self) -> int:
        """Address of the header cacheline (count, sibling)."""
        return self.base_addr

    def entry_addr(self, index: int) -> int:
        """Byte address of entry ``index``."""
        return self.base_addr + HEADER_BYTES + index * ENTRY_SIZE

    def entry_line(self, index: int) -> int:
        """Cacheline base address holding entry ``index``."""
        return cacheline_base(self.entry_addr(index))

    def binary_search_probes(self, key: int) -> list[int]:
        """Entry indexes a binary search would touch (for load traffic)."""
        probes = []
        lo, hi = 0, self.count
        while lo < hi:
            mid = (lo + hi) // 2
            probes.append(mid)
            if self.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return probes
