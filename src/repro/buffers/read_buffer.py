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
from dataclasses import dataclass

from repro.common.constants import CACHELINES_PER_XPLINE, FULL_XPLINE_MASK, XPLINE_SIZE
from repro.common.errors import ConfigError


@dataclass
class ReadBufferEntry:
    """One buffered XPLine: which cacheline slots were already delivered."""

    consumed_mask: int = 0

    def is_consumed(self, slot: int) -> bool:
        """True if ``slot`` was already delivered to the CPU."""
        return bool(self.consumed_mask & (1 << slot))

    def consume(self, slot: int) -> None:
        """Mark ``slot`` delivered (exclusivity)."""
        self.consumed_mask |= 1 << slot

    @property
    def fully_consumed(self) -> bool:
        """True when all four slots have been delivered."""
        return self.consumed_mask == FULL_XPLINE_MASK


class ReadBuffer:
    """FIFO, CPU-cache-exclusive buffer of recently fetched XPLines."""

    def __init__(self, capacity_bytes: int, name: str = "read-buffer") -> None:
        if capacity_bytes < XPLINE_SIZE:
            raise ConfigError(f"{name}: capacity {capacity_bytes} below one XPLine")
        self.name = name
        self.capacity_lines = capacity_bytes // XPLINE_SIZE
        # Insertion-ordered: first key is the FIFO victim.
        self._entries: OrderedDict[int, ReadBufferEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, xpline: int) -> bool:
        """True if the XPLine is buffered (regardless of consumed slots)."""
        return xpline in self._entries

    def servable(self, xpline: int, slot: int) -> bool:
        """True if a read of ``slot`` in ``xpline`` would hit the buffer."""
        entry = self._entries.get(xpline)
        return entry is not None and not entry.is_consumed(slot)

    def deliver(self, xpline: int, slot: int) -> bool:
        """Serve ``slot`` of ``xpline`` to the iMC if possible.

        On a hit the slot becomes consumed (exclusivity) and the entry
        is dropped once all four slots are gone.  Returns hit/miss; the
        FIFO position is *not* refreshed on hits — that is precisely
        what makes eviction FIFO rather than LRU.
        """
        entry = self._entries.get(xpline)
        if entry is None or entry.is_consumed(slot):
            return False
        entry.consume(slot)
        if entry.fully_consumed:
            del self._entries[xpline]
        return True

    def install(self, xpline: int, consumed_slots: tuple[int, ...] = ()) -> int | None:
        """Insert a freshly fetched XPLine; returns the evicted XPLine or None.

        ``consumed_slots`` marks slots delivered as part of the fetch
        itself (the demand cacheline travels straight to the iMC, so
        its slot is born consumed).
        """
        if xpline in self._entries:
            # Refetch of a partially consumed line replaces the entry
            # (fresh media read, all slots available again) but keeps
            # its FIFO position.
            entry = self._entries[xpline]
            entry.consumed_mask = 0
        else:
            self._entries[xpline] = entry = ReadBufferEntry()
        for slot in consumed_slots:
            entry.consume(slot)
        if entry.fully_consumed:
            del self._entries[xpline]
        evicted: int | None = None
        if len(self._entries) > self.capacity_lines:
            evicted, _ = self._entries.popitem(last=False)
        return evicted

    def take(self, xpline: int) -> bool:
        """Remove ``xpline`` (the read→write buffer transition, §3.3).

        Returns True if the line was present.  The write buffer becomes
        the owner; the media read that populated it is thereby reused
        instead of a fresh read-modify-write.
        """
        return self._entries.pop(xpline, None) is not None

    def resident_xplines(self) -> list[int]:
        """XPLine indexes currently buffered, in FIFO order."""
        return list(self._entries)

    def unconsumed_slot_count(self, xpline: int) -> int:
        """How many slots of ``xpline`` are still servable (0 if absent)."""
        entry = self._entries.get(xpline)
        if entry is None:
            return 0
        return CACHELINES_PER_XPLINE - bin(entry.consumed_mask).count("1")

    def clear(self) -> None:
        """Drop everything (power cycle)."""
        self._entries.clear()
