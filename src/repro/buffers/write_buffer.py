"""On-DIMM write-combining buffer (paper Section 3.2).

Properties the paper infers, all modeled here:

* **Capacity** between 12 KB (G1) and 16 KB (G2): write amplification
  for partial writes stays at 0 until the working set exceeds the
  capacity (Figure 3).
* **Random eviction**: the buffer hit ratio decays *gracefully* past
  capacity (Figure 4), unlike the read buffer's sharp FIFO step.
* **Two write-back mechanisms on G1**: fully-modified XPLines are
  written back periodically (~every 5000 cycles), while partially
  modified XPLines are retained until evicted.  G2 disables periodic
  write-back for full writes.
* Evicting a *partially* modified XPLine needs an underfill media read
  (read-modify-write) before the 256-byte media write; fully present
  lines (fully written, or transitioned from the read buffer per
  Section 3.3) skip the read.

The buffer is pure state: it never touches the media itself.  It
reports the work the DIMM front-end must schedule (evictions, due
periodic write-backs) as value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.constants import FULL_XPLINE_MASK, XPLINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.sim.clock import Cycles

#: G1's periodic write-back interval for fully-dirty XPLines, in cycles.
WRITEBACK_PERIOD = 5000.0


@dataclass(slots=True)
class WriteBufferEntry:
    """One buffered XPLine.

    ``dirty_mask``: cacheline slots holding not-yet-persisted data.
    ``present_mask``: slots whose data is available in the buffer
    (dirty slots, plus clean slots carried over by a read-buffer
    transition or a read-side fill).  ``full_since`` is set when the
    line became fully dirty — the periodic write-back timer.
    """

    dirty_mask: int = 0
    present_mask: int = 0
    full_since: Cycles | None = None


@dataclass(slots=True)
class Writeback:
    """A media write the DIMM front-end must schedule."""

    xpline: int
    #: True if an underfill read is needed first (partial line).
    needs_underfill_read: bool
    #: Why the line left the buffer ("evict" or "periodic").
    reason: str = "evict"


class WriteBuffer:
    """Random-eviction write-combining buffer of dirty XPLines."""

    def __init__(
        self,
        capacity_bytes: int,
        rng: DeterministicRng,
        periodic_writeback: bool = True,
        name: str = "write-buffer",
        eviction: str = "random",
    ) -> None:
        if capacity_bytes < XPLINE_SIZE:
            raise ConfigError(f"{name}: capacity {capacity_bytes} below one XPLine")
        if eviction not in ("random", "fifo"):
            raise ConfigError(f"{name}: unknown eviction policy {eviction!r}")
        self.eviction = eviction
        self.name = name
        self.capacity_lines = capacity_bytes // XPLINE_SIZE
        self.periodic_writeback = periodic_writeback
        self._rng = rng
        self.entries: dict[int, WriteBufferEntry] = {}
        #: Lower bound on the earliest periodic write-back due time
        #: (``full_since + WRITEBACK_PERIOD``) of any entry: lowered when
        #: a line becomes fully dirty, recomputed by every scan; stays
        #: infinite without periodic write-back.  Public so the DIMM
        #: skips the :meth:`poll` call while ``now`` is below it.
        self.due_bound: Cycles = math.inf
        # Parallel key list enabling O(1) uniform-random victim choice.
        self._keys: list[int] = []
        self._key_pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    # -- queries ----------------------------------------------------------

    def resident_xplines(self) -> list[int]:
        """Buffered XPLine indexes (unordered)."""
        return list(self._keys)

    # -- mutation ---------------------------------------------------------

    def write(self, now: Cycles, xpline: int, slot: int) -> tuple[Writeback, ...]:
        """Ingest one cacheline write into the buffer.

        Returns the media write-backs the DIMM must now schedule: due
        periodic write-backs first, then a rewrite of the old version
        or an eviction if the install overflowed capacity.
        """
        writebacks = self._collect_periodic(now) if now >= self.due_bound else []
        bit = 1 << slot
        entry = self.entries.get(xpline)
        if entry is None:
            self.entries[xpline] = WriteBufferEntry(bit, bit)
            self._key_pos[xpline] = len(self._keys)
            self._keys.append(xpline)
            if len(self.entries) > self.capacity_lines:
                writebacks.append(self._evict_random(exclude=xpline))
        elif self.periodic_writeback and entry.dirty_mask == FULL_XPLINE_MASK:
            # G1: a store to an already fully-dirty XPLine starts a
            # new version; the completed old version drains to the
            # media first.  This is what makes WA converge to 1 for
            # 100% writes even at tiny working sets (Figure 3), and
            # it back-pressures like an eviction — bounding
            # sustained full-line write bandwidth at the media rate.
            writebacks.append(self._pop(xpline, reason="rewrite"))
            self.entries[xpline] = WriteBufferEntry(bit, bit)
            self._key_pos[xpline] = len(self._keys)
            self._keys.append(xpline)
        else:
            entry.present_mask |= bit
            entry.dirty_mask |= bit
            # Only a merge can complete a line: a new entry holds one slot.
            if entry.dirty_mask == FULL_XPLINE_MASK and entry.full_since is None:
                entry.full_since = now
                if self.periodic_writeback:
                    self.due_bound = min(self.due_bound, now + WRITEBACK_PERIOD)
        return tuple(writebacks)

    def adopt_from_read_buffer(self, now: Cycles, xpline: int, slot: int) -> tuple[Writeback, ...]:
        """Install an XPLine handed over by the read buffer (§3.3).

        The line arrives fully present (it was read from the media), so
        the dirty slot is recorded but no underfill read will ever be
        needed — this is how the transition avoids the expensive
        read-modify-write.
        """
        writebacks = self._collect_periodic(now) if now >= self.due_bound else []
        self.entries[xpline] = WriteBufferEntry(1 << slot, FULL_XPLINE_MASK)
        self._key_pos[xpline] = len(self._keys)
        self._keys.append(xpline)
        if len(self.entries) > self.capacity_lines:
            writebacks.append(self._evict_random(exclude=xpline))
        return tuple(writebacks)

    def poll(self, now: Cycles) -> tuple[Writeback, ...]:
        """Collect periodic write-backs that came due by ``now``.

        Called by the DIMM front-end on reads (only once ``now`` has
        reached :attr:`due_bound`) so that fully-dirty lines drain even
        without further writes.
        """
        if now < self.due_bound:
            return ()
        return tuple(self._collect_periodic(now))

    def drain_all(self) -> tuple[Writeback, ...]:
        """Flush every buffered line (simulated ADR power-fail drain)."""
        out = []
        for xpline in list(self._keys):
            out.append(self._pop(xpline, reason="evict"))
        return tuple(out)

    def discard(self, xpline: int) -> WriteBufferEntry:
        """Drop one buffered XPLine *without* writing it back.

        Used by fault injection to model a torn ADR drain: the entry's
        dirty slots simply never reach the media.  Returns the removed
        entry so the caller can report exactly which cacheline slots
        were destroyed.  Raises ``KeyError`` if the line is not
        resident.
        """
        entry = self.entries[xpline]
        self._pop(xpline, reason="evict")
        return entry

    # -- internals ---------------------------------------------------------

    def _collect_periodic(self, now: Cycles) -> list[Writeback]:
        """Pop every line due by ``now``, in insertion order.

        Insertion order, not due order: write-back order feeds media
        timing.  Callers skip the scan while ``now`` is below the bound.
        """
        period = WRITEBACK_PERIOD
        due = []
        bound = math.inf
        for xpline, entry in self.entries.items():
            if entry.full_since is not None:
                due_at = entry.full_since + period
                if due_at <= now:
                    due.append(xpline)
                elif due_at < bound:
                    bound = due_at
        self.due_bound = bound
        return [self._pop(xpline, reason="periodic") for xpline in due]

    def _evict_random(self, exclude: int) -> Writeback:
        """Evict a victim other than ``exclude`` (unless it is the only line).

        Written out in one frame: the victim's entry and key slot are
        removed in place, and the draw is ``random.Random.randrange(n)``'s
        own (``_randbelow_with_getrandbits``: ``n.bit_length()`` random
        bits, redrawn while out of range) on the buffer's stream.
        """
        keys = self._keys
        n = len(keys)
        if self.eviction == "fifo":
            # Ablation mode: oldest entry first (dict preserves
            # insertion order).  Produces a hit-ratio cliff instead of
            # Figure 4's graceful decay.
            for victim in self.entries:
                if victim != exclude or n == 1:
                    break
        else:
            getrandbits = self._rng.getrandbits
            bits = n.bit_length()
            while True:
                index = getrandbits(bits)
                while index >= n:
                    index = getrandbits(bits)
                victim = keys[index]
                if victim != exclude or n == 1:
                    break
        entry = self.entries.pop(victim)
        pos = self._key_pos.pop(victim)
        last = keys.pop()
        if last != victim:
            keys[pos] = last
            self._key_pos[last] = pos
        return Writeback(victim, entry.present_mask != FULL_XPLINE_MASK, "evict")

    def _pop(self, xpline: int, reason: str) -> Writeback:
        entry = self.entries.pop(xpline)
        pos = self._key_pos.pop(xpline)
        last = self._keys.pop()
        if last != xpline:
            self._keys[pos] = last
            self._key_pos[last] = pos
        return Writeback(xpline, entry.present_mask != FULL_XPLINE_MASK, reason)

    def clear(self) -> None:
        """Drop everything without write-backs (test helper)."""
        self.entries.clear()
        self._keys.clear()
        self._key_pos.clear()
        self.due_bound = math.inf
