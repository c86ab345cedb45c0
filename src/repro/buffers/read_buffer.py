"""On-DIMM read buffer (paper Section 3.1).

The paper infers three properties, all implemented here:

1. **Capacity**: 16 KB on G1 (64 XPLines), ~22 KB on G2.
2. **FIFO eviction**: read amplification jumps sharply to 4 the moment
   the working set exceeds the capacity (Figure 2), the signature of
   first-in-first-out replacement rather than LRU.
3. **Exclusivity with the CPU caches**: "a cacheline is evicted from
   the read buffer once it is loaded into the CPU caches" — which is
   why RA never drops below 1 even for tiny working sets.  We model
   exclusivity per cacheline: delivering a cacheline to the iMC marks
   that 64-byte slot *consumed*; a later read of the same slot misses
   and re-fetches the XPLine from the media.  Once all four slots are
   consumed the entry is dropped entirely.

The buffer also serves as the landing zone for adjacent-XPLine
prefetches triggered by CPU prefetching (Section 3.4) and as the donor
side of the read→write buffer transition (Section 3.3).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.constants import CACHELINES_PER_XPLINE, FULL_XPLINE_MASK, XPLINE_SIZE
from repro.common.errors import ConfigError


class ReadBuffer:
    """FIFO, CPU-cache-exclusive buffer of recently fetched XPLines."""

    def __init__(self, capacity_bytes: int, name: str = "read-buffer") -> None:
        if capacity_bytes < XPLINE_SIZE:
            raise ConfigError(f"{name}: capacity {capacity_bytes} below one XPLine")
        self.name = name
        self.capacity_lines = capacity_bytes // XPLINE_SIZE
        #: XPLine -> bitmask of its cacheline slots already delivered to
        #: the CPU.  Insertion-ordered: the first key is the FIFO victim.
        self.entries: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self.entries)

    def deliver(self, xpline: int, slot: int) -> bool:
        """Serve ``slot`` of ``xpline`` to the iMC if possible.

        On a hit the slot becomes consumed (exclusivity) and the entry
        is dropped once all four slots are gone.  Returns hit/miss; the
        FIFO position is *not* refreshed on hits — that is precisely
        what makes eviction FIFO rather than LRU.
        """
        consumed = self.entries.get(xpline)
        bit = 1 << slot
        if consumed is None or consumed & bit:
            return False
        consumed |= bit
        if consumed == FULL_XPLINE_MASK:
            del self.entries[xpline]
        else:
            self.entries[xpline] = consumed
        return True

    def install(self, xpline: int, consumed_slots: tuple[int, ...] = ()) -> int | None:
        """Insert a freshly fetched XPLine; returns the evicted XPLine or None.

        ``consumed_slots`` marks slots delivered as part of the fetch
        itself (the demand cacheline travels straight to the iMC, so
        its slot is born consumed).  Refetching a buffered line resets
        its slots (fresh media read, all available again) but keeps its
        FIFO position.
        """
        consumed = 0
        for slot in consumed_slots:
            consumed |= 1 << slot
        entries = self.entries
        if consumed == FULL_XPLINE_MASK:
            entries.pop(xpline, None)
        else:
            entries[xpline] = consumed
        if len(entries) > self.capacity_lines:
            return entries.popitem(last=False)[0]
        return None

    def take(self, xpline: int) -> bool:
        """Remove ``xpline`` (the read→write buffer transition, §3.3).

        Returns True if the line was present.  The write buffer becomes
        the owner; the media read that populated it is thereby reused
        instead of a fresh read-modify-write.
        """
        return self.entries.pop(xpline, None) is not None

    def resident_xplines(self) -> list[int]:
        """XPLine indexes currently buffered, in FIFO order."""
        return list(self.entries)

    def unconsumed_slot_count(self, xpline: int) -> int:
        """How many slots of ``xpline`` are still servable (0 if absent)."""
        consumed = self.entries.get(xpline)
        if consumed is None:
            return 0
        return CACHELINES_PER_XPLINE - bin(consumed).count("1")

    def clear(self) -> None:
        """Drop everything (power cycle)."""
        self.entries.clear()
