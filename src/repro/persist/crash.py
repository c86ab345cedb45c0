"""Power-failure simulation over the ADR domain (paper Section 2.1).

The ADR (asynchronous DRAM refresh) guarantee: stores that have reached
the iMC's write pending queue or the on-DIMM write buffer are flushed
to the 3D-XPoint media on power failure; everything still in the CPU
caches is lost (the paper's testbeds run with eADR disabled, so this
holds for both generations).

:class:`CrashSimulator` applies exactly that, in ADR order: it first
drains every PM DIMM's write buffer to the media (reporting
``drained_xplines`` per DIMM), then discards the CPU caches (reporting
which *dirty PM lines* were lost), and finally clears pending iMC
WPQ/in-flight state.  Paired with :class:`DurabilityChecker`,
data-structure tests can assert the crash-consistency discipline the
paper's structures rely on: an address that was explicitly persisted
(flush accepted before a fence) is never among the lost lines.

Beyond the clean power loss, :class:`FaultMode` adds two transient
beyond-ADR faults used by :mod:`repro.faults`:

* ``torn-xpline`` — the drain is interrupted mid-write-buffer and one
  buffered XPLine's dirty slots never reach the media (a torn 256 B
  write);
* ``ait-miss`` — AIT-cache misses during the drain slow it down past
  the residual-power budget, so the tail of the buffer is lost.

Lines destroyed by either fault are reported separately in
``CrashReport.torn_pm_lines`` so recovery validators can distinguish a
datastore bug (a missing persistence barrier) from injected platform
damage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, FULL_XPLINE_MASK, XPLINE_SIZE, cacheline_index
from repro.common.errors import AddressError, ConfigError, RecoveryError
from repro.common.rng import DeterministicRng
from repro.media.ait import MISS_PENALTY
from repro.media.xpoint import RMW_FACTOR, WRITE_LATENCY
from repro.system.machine import Machine

#: Cacheline slots per XPLine (4 with 64 B lines and 256 B XPLines).
_SLOTS_PER_XPLINE = XPLINE_SIZE // CACHELINE_SIZE


class FaultMode(enum.Enum):
    """How the power failure interacts with the ADR drain.

    ``CLEAN`` is the ADR contract working as specified.  The other two
    model transient platform faults *beyond* ADR: data the fence
    semantics promised durable can still be destroyed, and validators
    are expected to classify the resulting losses as injected damage
    rather than datastore bugs.
    """

    CLEAN = "power-loss"
    TORN_XPLINE = "torn-xpline"
    AIT_MISS = "ait-miss"

    @classmethod
    def parse(cls, value: "FaultMode | str") -> "FaultMode":
        """Normalize a mode given as an enum member or its string value."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ConfigError(
            f"unknown fault mode {value!r}; known: "
            + ", ".join(member.value for member in cls)
        )


def cacheline_span(addr: int, size: int) -> range:
    """Cacheline indexes covered by [addr, addr+size); a 0-byte op covers one."""
    return range(cacheline_index(addr), cacheline_index(addr + max(size, 1) - 1) + 1)


def _xpline_cachelines(xpline: int, mask: int) -> set[int]:
    """Cacheline indexes of the slots selected by ``mask`` in ``xpline``."""
    return {
        xpline * _SLOTS_PER_XPLINE + slot
        for slot in range(_SLOTS_PER_XPLINE)
        if mask & (1 << slot)
    }


@dataclass(frozen=True)
class CrashReport:
    """What a power failure destroyed and preserved."""

    #: Dirty PM cachelines that existed only in the CPU caches — gone.
    lost_pm_lines: frozenset[int]
    #: Dirty DRAM lines also die, but DRAM content is volatile anyway.
    lost_dram_lines: frozenset[int]
    #: XPLines the ADR drain pushed from write buffers to the media,
    #: per PM DIMM (name, count) — includes eADR-flushed lines.
    drained_by_dimm: tuple[tuple[str, int], ...] = ()
    #: PM cachelines destroyed *inside* the ADR domain by an injected
    #: beyond-ADR fault (torn XPLine, exhausted drain budget).  These
    #: were accepted before a fence and are still lost.
    torn_pm_lines: frozenset[int] = frozenset()
    #: Dirty PM cachelines the eADR platform routine flushed (paper §6).
    eadr_flushed_lines: int = 0
    #: The fault mode that produced this report.
    mode: str = FaultMode.CLEAN.value

    @property
    def drained_xplines(self) -> int:
        """Total XPLines drained across every PM DIMM."""
        return sum(count for _, count in self.drained_by_dimm)

    def lost_addresses(self) -> set[int]:
        """Byte addresses (line bases) of lost PM lines."""
        return {line * CACHELINE_SIZE for line in self.lost_pm_lines}

    def destroyed_pm_lines(self) -> frozenset[int]:
        """Every PM line that did not survive: cache losses + torn lines."""
        return self.lost_pm_lines | self.torn_pm_lines


class CrashSimulator:
    """Injects power failures into a machine."""

    def __init__(self, machine: Machine) -> None:
        """Attach the simulator to ``machine`` (crashes count up)."""
        self.machine = machine
        self.crashes = 0

    def power_failure(
        self,
        now: float = 0.0,
        mode: FaultMode | str = FaultMode.CLEAN,
        rng: DeterministicRng | None = None,
    ) -> CrashReport:
        """Cut power: ADR drains the buffers, the caches evaporate.

        The drain follows ADR ordering — on-DIMM buffers are flushed to
        the media *before* the CPU caches are discarded — and pending
        iMC WPQ/in-flight state is cleared last, once everything the
        queues accepted has reached the device.

        ``mode`` selects a :class:`FaultMode`; the beyond-ADR modes use
        ``rng`` (victim choice for ``torn-xpline``) and report the
        destroyed lines in ``torn_pm_lines``.  With eADR enabled
        (paper §6), dirty PM cachelines are flushed by the platform
        instead of being lost, then drained like any buffered write.
        """
        self.crashes += 1
        mode = FaultMode.parse(mode)
        machine = self.machine
        torn: set[int] = set()

        pm_channels = [
            channel
            for region in machine.regions
            if region.spec.kind == "pm"
            for channel in region.channels
        ]

        # 1. Beyond-ADR fault injection happens against the pre-drain
        #    buffer state: pick the casualties before draining.
        if mode is FaultMode.TORN_XPLINE:
            torn |= self._tear_one_xpline(pm_channels, rng)
        elif mode is FaultMode.AIT_MISS:
            for channel in pm_channels:
                torn |= self._exhaust_drain_budget(channel)

        # 2. ADR drain: buffers reach the media before anything else is
        #    discarded.  Per-DIMM counts keyed by device name.
        drained: dict[str, int] = {}
        for channel in pm_channels:
            drained[channel.device.name] = channel.device.drain_for_power_failure(now)

        # 3. The CPU caches evaporate.  Under eADR the platform routine
        #    flushes dirty PM lines into the (already drained) write
        #    buffers first; everything else is lost.
        lost_pm: set[int] = set()
        lost_dram: set[int] = set()
        eadr_flushed = 0
        for line in machine.caches.dirty_lines():
            addr = line * CACHELINE_SIZE
            try:
                region = machine.region_of(addr)
            except AddressError:
                continue
            if region.spec.kind == "pm":
                if machine.config.eadr:
                    region.channel_for(addr).write(now, addr)
                    eadr_flushed += 1
                else:
                    lost_pm.add(line)
            else:
                lost_dram.add(line)
        machine.caches.clear()

        # 4. A second drain pass pushes whatever eADR just flushed.
        if eadr_flushed:
            for channel in pm_channels:
                drained[channel.device.name] = drained.get(
                    channel.device.name, 0
                ) + channel.device.drain_for_power_failure(now)

        # 5. The iMC queues lose power last: every accepted write has
        #    been pushed to the device above, so clearing the WPQ and
        #    the in-flight persist tracker loses nothing.
        for region in machine.regions:
            for channel in region.channels:
                channel.power_cycle()

        return CrashReport(
            lost_pm_lines=frozenset(lost_pm),
            lost_dram_lines=frozenset(lost_dram),
            drained_by_dimm=tuple(sorted(drained.items())),
            torn_pm_lines=frozenset(torn),
            eadr_flushed_lines=eadr_flushed,
            mode=mode.value,
        )

    # -- beyond-ADR fault helpers -----------------------------------------

    def _tear_one_xpline(self, pm_channels: list, rng: DeterministicRng | None) -> set[int]:
        """Discard one buffered XPLine mid-drain; returns its dead lines.

        Victim preference follows the physical story: a *partially*
        dirty XPLine is mid-write-combine and most plausibly torn; a
        fully dirty one is the fallback.  ``rng=None`` picks the most
        recently installed candidate deterministically.
        """
        candidates: list[tuple[object, int]] = []
        fallback: list[tuple[object, int]] = []
        for channel in pm_channels:
            buffer = channel.device.write_buffer
            for xpline in buffer.resident_xplines():
                fully_dirty = buffer.entries[xpline].dirty_mask == FULL_XPLINE_MASK
                (fallback if fully_dirty else candidates).append((channel, xpline))
        pool = candidates or fallback
        if not pool:
            return set()
        index = rng.choice_index(len(pool)) if rng is not None else len(pool) - 1
        channel, xpline = pool[index]
        entry = channel.device.write_buffer.discard(xpline)
        return _xpline_cachelines(xpline, entry.dirty_mask)

    def _exhaust_drain_budget(self, channel) -> set[int]:
        """Model AIT-cache misses eating the residual-power drain budget.

        The ADR hold-up energy is sized for a clean drain: each
        buffered XPLine costs one media write (RMW-weighted when it
        needs an underfill read).  An XPLine whose AIT translation
        granule is *not* resident pays the miss penalty on top; once
        the cumulative cost exceeds the clean-drain budget, the rest of
        the buffer never reaches the media.  Returns the dead lines.
        """
        device = channel.device
        buffer = device.write_buffer
        media = device.media
        resident = buffer.resident_xplines()
        if not resident:
            return set()
        base_cost = []
        for xpline in resident:
            cost = WRITE_LATENCY
            if buffer.entries[xpline].present_mask != FULL_XPLINE_MASK:
                cost *= RMW_FACTOR
            base_cost.append(cost)
        budget = sum(base_cost)
        spent = 0.0
        dead: set[int] = set()
        for xpline, cost in zip(resident, base_cost):
            addr = xpline * XPLINE_SIZE
            if not media.ait.covers(addr):
                cost += MISS_PENALTY
            spent += cost
            if spent > budget:
                entry = buffer.discard(xpline)
                dead |= _xpline_cachelines(xpline, entry.dirty_mask)
        return dead


class DurabilityChecker:
    """Tracks addresses an application has *committed* as durable.

    A data structure calls :meth:`commit` after its persistence barrier
    returns for an address range.  After a crash,
    :meth:`verify_against` raises :class:`RecoveryError` if any
    committed line was among the lost dirty lines — i.e., the structure
    claimed durability it did not have.  :meth:`retract` withdraws a
    claim when the line is deliberately re-dirtied and its durability
    is guaranteed by other means (e.g. a committed redo-log entry).
    """

    def __init__(self) -> None:
        """Start with an empty ledger."""
        self._committed_lines: set[int] = set()

    def commit(self, addr: int, size: int = 8) -> None:
        """Mark [addr, addr+size) as claimed-durable."""
        self._committed_lines.update(cacheline_span(addr, size))

    def retract(self, addr: int, size: int = 8) -> None:
        """Withdraw the durability claim over [addr, addr+size).

        Used when a committed line is re-dirtied in place: the cached
        new version is legitimately volatile until the next barrier, so
        losing it in a crash is not a violation.
        """
        self._committed_lines.difference_update(cacheline_span(addr, size))

    @property
    def committed_count(self) -> int:
        """Number of cachelines claimed durable so far."""
        return len(self._committed_lines)

    def violations_against(self, report: CrashReport) -> frozenset[int]:
        """Committed cachelines the crash destroyed (cache-lost or torn)."""
        return frozenset(self._committed_lines & report.destroyed_pm_lines())

    def verify_against(self, report: CrashReport) -> None:
        """Raise if a committed line was lost in the crash."""
        violations = self.violations_against(report)
        if violations:
            torn = violations & report.torn_pm_lines
            detail = (
                f" ({len(torn)} destroyed by the injected {report.mode} fault)"
                if torn
                else " — a missing persistence barrier"
            )
            raise RecoveryError(
                f"{len(violations)} committed cachelines were lost in the "
                f"crash (first few: {sorted(violations)[:5]}){detail}"
            )
