"""The full simulated machine and its CPU cores.

A :class:`Machine` wires together one cache hierarchy + prefetch
engine (the socket), iMC channels, and memory regions (local/remote
PM and DRAM).  :class:`Core` is the programmer-facing handle: it
executes the x86 persistence primitives the paper's benchmarks use —
``load``, ``store``, ``nt_store``, ``clwb``, ``clflush(opt)``,
``sfence``, ``mfence``, ``stream_load`` — against the machine,
advancing its own local cycle clock.

Timing semantics worth calling out (each maps to a paper finding):

* Stores retire into a store buffer: a store miss issues its RFO read
  in the background and does not stall the core.  This is why write
  latency is flat across working-set sizes (Figure 8) — persists are
  gated by WPQ acceptance, not media writes.
* A fence waits only for WPQ *acceptance* of prior flushes; the
  persist completes on the DIMM much later.  A load that cannot be
  served by the caches and targets a line with an in-flight persist
  stalls until completion — read-after-persist (Figure 7).
* Loads are not ordered by ``sfence``: a load targeting one of the
  last few flushed lines may overtake the flush and hit the (pre-
  invalidation) cached copy; ``mfence`` closes that window.
* On G1, ``clwb`` invalidates the flushed line; on G2 it retains it
  (clean), paying a coherence-maintenance cost instead.
"""

from __future__ import annotations

import weakref
import zlib
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.cache.hierarchy import CacheHierarchy, CacheHierarchyConfig
from repro.cache.prefetch import PrefetchEngine, PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE
from repro.common.errors import AddressError, ConfigError
from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.dimm.config import DramDimmConfig, OptaneDimmConfig
from repro.dimm.dram import DramDimm
from repro.dimm.optane import OptaneDimm
from repro.sim.clock import Cycles
from repro.stats.counters import TelemetryCounters, TelemetryRegistry
from repro.system.imc import IMCChannel


#: Instruction-issue and fence costs, in cycles.
STORE_BUFFER_LATENCY = 14.0
CLWB_ISSUE = 8.0
CLFLUSH_ISSUE = 12.0
NTSTORE_ISSUE = 10.0
SFENCE_COST = 20.0
MFENCE_COST = 30.0
STREAM_LOAD_ISSUE = 10.0


@dataclass(frozen=True)
class CoreTiming:
    """The clwb coherence cost and the sfence ordering-window parameters."""

    #: Extra clwb cost on G2 (cacheline retained ⇒ coherence upkeep).
    clwb_coherence_cost: float = 0.0
    #: How many recent flushes a load may overtake under sfence ordering.
    sfence_reorder_window: int = 2
    #: Fraction of a RAP stall hidden when only sfence ordering applies.
    sfence_rap_overlap: float = 0.25


@dataclass(frozen=True)
class RegionSpec:
    """One memory region: an address range backed by a DIMM group."""

    name: str
    kind: str  # "pm" or "dram"
    base: int
    size: int
    dimms: int = 1
    remote: bool = False
    #: NUMA adders applied when ``remote`` is True.
    remote_read_adder: float = 0.0
    remote_write_adder: float = 0.0
    remote_persist_adder: float = 0.0

    def validate(self) -> None:
        """Raise ConfigError on an invalid region spec."""
        if self.kind not in ("pm", "dram"):
            raise ConfigError(f"region {self.name}: unknown kind {self.kind!r}")
        if self.size <= 0 or self.dimms <= 0:
            raise ConfigError(f"region {self.name}: sizes must be positive")

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.base + self.size


#: Bytes of a region mapped to one DIMM before the next takes over.
INTERLEAVE_BYTES = 4096
#: Default region bases, far apart so regions can grow in tests.
PM_BASE = 1 << 40
DRAM_BASE = 1 << 30
REMOTE_PM_BASE = 1 << 44
REMOTE_DRAM_BASE = 1 << 45
#: Default NUMA adders (cycles), calibrated to Figure 7's remote curves.
REMOTE_PM_READ_ADDER = 500.0
REMOTE_PM_PERSIST_ADDER = 700.0
REMOTE_DRAM_READ_ADDER = 130.0
REMOTE_DRAM_PERSIST_ADDER = 150.0


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a simulated testbed."""

    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    prefetchers: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    optane: OptaneDimmConfig = field(default_factory=OptaneDimmConfig)
    dram: DramDimmConfig = field(default_factory=DramDimmConfig)
    timing: CoreTiming = field(default_factory=CoreTiming)
    regions: tuple[RegionSpec, ...] = ()
    #: G2 retains flushed cachelines (eliminating clwb RAP, §3.5).
    clwb_retains: bool = False
    #: Extended ADR (paper §6): the CPU caches join the persistence
    #: domain, so no flushes are needed for durability and a power
    #: failure flushes dirty cachelines instead of losing them.  The
    #: paper's testbeds run with eADR *disabled*; this flag exists to
    #: explore the platform the paper could not evaluate.
    eadr: bool = False
    #: CPU clock, used only to convert cycles to wall-clock figures
    #: (Mops/s, GB/s) in experiment reports.
    frequency_ghz: float = 2.1
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        """Validate the whole machine configuration."""
        self.caches.validate()
        self.optane.validate()
        self.dram.validate()
        for region in self.regions:
            region.validate()
        ordered = sorted(self.regions, key=lambda r: r.base)
        for left, right in zip(ordered, ordered[1:]):
            if left.end > right.base:
                raise ConfigError(f"regions {left.name} and {right.name} overlap")


class _Region:
    """Instantiated region: spec + its iMC channels.

    The address bounds and channel count are copied into plain
    attributes: routing runs on every simulated access.
    """

    def __init__(self, spec: RegionSpec, channels: list[IMCChannel]) -> None:
        self.spec = spec
        self.channels = channels
        self.base = spec.base
        self.end = spec.end
        self.n_channels = len(channels)

    def channel_for(self, addr: int) -> IMCChannel:
        """Route ``addr`` to its interleaved iMC channel.

        The memory operations inline this expression (see Machine).
        """
        return self.channels[(addr - self.base) // INTERLEAVE_BYTES % self.n_channels]


#: The region memo of a machine that has routed nothing yet: it holds
#: no address, so the first access falls through to the scan.
_NOWHERE = SimpleNamespace(base=0, end=0)


class Machine:
    """One socket (caches + prefetchers) over PM and DRAM regions."""

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self.config = config
        self.rng = DeterministicRng(config.seed)
        self.registry = TelemetryRegistry()
        self.caches = CacheHierarchy(config.caches)
        self.prefetch = PrefetchEngine(config.prefetchers, self.rng.fork(1))
        #: The instantiated regions, in ascending address order.
        self.regions: list[_Region] = []
        self._inflight_fills: dict[int, Cycles] = {}
        self.prefetch_issued = 0
        for spec in config.regions:
            self.regions.append(self._build_region(spec))
        self.regions.sort(key=lambda region: region.base)
        #: The region the last scan found (see region_of).
        self._route = _NOWHERE
        #: Weak refs to the cores created via new_core.  Weak, not
        #: strong: a strong list would close a Machine -> Core ->
        #: Machine cycle, parking every discarded machine (and its
        #: whole cache hierarchy) on the cyclic collector instead of
        #: freeing it by refcount — measurably slowing untraced sweeps.
        self._core_refs: list[weakref.ref] = []
        #: Trace handle installed by an ambient repro.trace session
        #: (None ⇒ tracing off; every probe reduces to one attribute
        #: test).  The import is local so building a machine does not
        #: pull the trace package in when tracing is never used.
        self.trace = None
        from repro.trace.session import attach_if_active

        attach_if_active(self)

    # -- construction -----------------------------------------------------

    def _build_region(self, spec: RegionSpec) -> _Region:
        channels = []
        for index in range(spec.dimms):
            name = f"{spec.name}{index}"
            counters = self.registry.register(name)
            if spec.kind == "pm":
                # Derive the device RNG stream from a *stable* hash of
                # the name (Python's str hash is salted per process and
                # would break cross-run determinism).
                stream = 100 + zlib.crc32(name.encode()) % 1000
                device = OptaneDimm(
                    self.config.optane, counters, self.rng.fork(stream), name=name
                )
            else:
                device = DramDimm(self.config.dram, counters, name=name)
            channels.append(IMCChannel(device, name=f"imc.{name}"))
        return _Region(spec, channels)

    # -- address routing -----------------------------------------------------

    def region_of(self, addr: int) -> _Region:
        """Region containing ``addr`` (AddressError if unmapped).

        The region found is remembered: successive accesses mostly stay
        in one region, so the memory operations test that one inline
        and call this only for an address outside it.
        """
        for region in self.regions:
            if region.base <= addr < region.end:
                self._route = region
                return region
        raise AddressError(f"address {addr:#x} is outside every mapped region")

    def region_spec(self, name: str) -> RegionSpec:
        """Spec of the region called ``name``."""
        for region in self.regions:
            if region.spec.name == name:
                return region.spec
        raise AddressError(f"no region named {name!r}")

    def new_core(self, name: str = "cpu0") -> "Core":
        """Create an execution context on this machine."""
        core = Core(self, name)
        self._core_refs.append(weakref.ref(core))
        return core

    @property
    def cores(self) -> list["Core"]:
        """The live cores created on this machine (observability hook)."""
        alive = []
        refs = []
        for ref in self._core_refs:
            core = ref()
            if core is not None:
                alive.append(core)
                refs.append(ref)
        self._core_refs = refs
        return alive

    def channels(self) -> dict[str, IMCChannel]:
        """Every iMC channel, keyed by its device's name (``pm0``, ...)."""
        return {
            channel.device.name: channel
            for region in self.regions
            for channel in region.channels
        }

    # -- telemetry -----------------------------------------------------------

    def counters(self, region_name: str) -> TelemetryCounters:
        """Aggregate counters over all DIMMs of one region."""
        return self.registry.aggregate(region_name)

    def pm_counters(self) -> TelemetryCounters:
        """Aggregate over the default local-PM region."""
        return self.counters("pm")

    def measure(self, region_name: str = "pm"):
        """Context manager measuring one region's counter deltas.

        ``with machine.measure("pm") as delta: ...`` replaces the
        manual snapshot/delta pair (see
        :meth:`~repro.stats.counters.TelemetryRegistry.measure`).
        """
        return self.registry.measure(region_name)

    # -- memory operations (called by Core) -------------------------------------
    #
    # Each operation is one frame: routing (the region memo, then
    # ``_Region.channel_for`` inlined), the core's flush bookkeeping and
    # the persist through the WPQ are written out in place, so the only
    # calls an untraced access makes are to the cache hierarchy, the
    # iMC channel and what they call in turn.  Methods of other objects
    # are looked up per call, never bound at construction, so a class
    # patched after a machine or core was built is still reached.  A
    # load asks the channel for a read-after-persist stall only when its
    # line is a key of the in-flight tracker: any other line has no
    # persist in flight and no stale entry to prune.

    def demand_load(self, now: Cycles, addr: int, core: "Core") -> Cycles:
        """One 64 B demand load; returns its completion time."""
        trace = self.trace
        if trace is not None:
            trace.on_op(now)
        line = addr // CACHELINE_SIZE
        result = self.caches.access(line, False)
        if result.hit_level is not None:
            finish = now + result.latency
            fill_done = self._inflight_fills.get(line)
            if fill_done is not None and fill_done > finish:
                finish = fill_done  # data still in flight from a prefetch
            if result.memory_writebacks:
                self._handle_llc_writebacks(result.memory_writebacks, now)
        else:
            # A miss reaches memory after the full-probe overhead.
            start = sent = now + result.latency
            region = self._route
            if not region.base <= addr < region.end:
                region = self.region_of(addr)
            channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
            # Only a tracked line can have a persist in flight.
            if line in channel.inflight.completion_by_line:
                stall = channel.persist_stall(sent, addr)
            else:
                stall = None
            if stall is not None and line in core.recent_flushes:
                # The load overtakes the flush (sfence does not order
                # loads) and is served from the pre-flush cached copy.
                finish = sent + self.config.caches.l1.latency
            else:
                if stall is not None:
                    if core.last_fence == "sfence":
                        overlap = self.config.timing.sfence_rap_overlap
                        stall = sent + (stall - sent) * (1.0 - overlap)
                    if trace is not None and stall > sent:
                        trace.span("persist", "rap-stall", sent, stall, core.name, addr=addr)
                    sent = max(sent, stall)
                finish, source = channel.read(sent, addr, True)
                if region.spec.remote:
                    finish += region.spec.remote_read_adder
                writebacks = self.caches.fill(line, False, True)
                if writebacks:
                    self._handle_llc_writebacks(writebacks, sent)
                if trace is not None:
                    trace.span("cache", "load-miss", start, finish, core.name,
                               addr=addr, source=source)
        prefetch = self.prefetch
        if prefetch.enabled:
            candidates = prefetch.observe(line, result.hit_level)
            if candidates:
                self._issue_prefetches(now, candidates)
        return finish

    def demand_store(self, now: Cycles, addr: int, core: "Core") -> Cycles:
        """One 64 B store through the store buffer; returns completion.

        Stores retire from the store buffer whether they hit or miss —
        the cacheline fill happens in the background either way.  This
        is what keeps write latency flat at any working-set size
        (Figure 8 c).
        """
        if self.trace is not None:
            self.trace.on_op(now)
        line = addr // CACHELINE_SIZE
        result = self.caches.access(line, True)
        if result.hit_level is not None:
            finish = now + min(result.latency, STORE_BUFFER_LATENCY)
            if result.memory_writebacks:
                self._handle_llc_writebacks(result.memory_writebacks, now)
        else:
            # Write-allocate: the RFO read happens in the background and
            # the store retires from the store buffer without waiting.
            region = self._route
            if not region.base <= addr < region.end:
                region = self.region_of(addr)
            channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
            channel.read(now, addr, True)
            writebacks = self.caches.fill(line, True, True)
            if writebacks:
                self._handle_llc_writebacks(writebacks, now)
            finish = now + STORE_BUFFER_LATENCY
        prefetch = self.prefetch
        if prefetch.enabled:
            candidates = prefetch.observe(line, result.hit_level)
            if candidates:
                self._issue_prefetches(now, candidates)
        return finish

    def stream_load(self, now: Cycles, addr: int) -> Cycles:
        """One 64 B SIMD streaming load (Algorithm 2 of the paper).

        Bypasses the caches (no fill) and is invisible to the
        prefetchers — the property the redirection optimization relies
        on to stop misprefetching.
        """
        trace = self.trace
        if trace is not None:
            trace.on_op(now)
        start = now
        region = self._route
        if not region.base <= addr < region.end:
            region = self.region_of(addr)
        channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
        if addr // CACHELINE_SIZE in channel.inflight.completion_by_line:
            stall = channel.persist_stall(now, addr)
            if stall is not None:
                if trace is not None and stall > now:
                    trace.span("persist", "rap-stall", now, stall, None, addr=addr)
                now = max(now, stall)
        finish, source = channel.read(now, addr, True)
        if region.spec.remote:
            finish += region.spec.remote_read_adder
        if trace is not None:
            trace.span("cache", "stream-load", start, finish, None,
                       addr=addr, source=source)
        return finish

    def flush_line(self, now: Cycles, addr: int, core: "Core", invalidate: bool) -> Cycles:
        """clwb / clflush(opt) of one line; returns instruction finish time.

        A dirty line is pushed through the WPQ; the core's next fence
        waits for its acceptance.
        """
        trace = self.trace
        if trace is not None:
            trace.on_op(now)
        line = addr // CACHELINE_SIZE
        if invalidate:
            dirty = self.caches.invalidate(line)
            cost = CLWB_ISSUE
        else:
            dirty = self.caches.clean(line)
            cost = CLWB_ISSUE + self.config.timing.clwb_coherence_cost
        if not dirty:
            return now + cost
        region = self._route
        if not region.base <= addr < region.end:
            region = self.region_of(addr)
        channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
        grant = channel.write(now, addr)
        acceptance = grant.acceptance
        if region.spec.remote:
            acceptance += region.spec.remote_write_adder
            channel.inflight.add(line, grant.persist_completion + region.spec.remote_persist_adder)
        core.pending_acceptances.append(acceptance)
        if trace is not None:
            trace.span("persist", "flush", now, acceptance, core.name, addr=addr)
            trace.span("persist", "drain", acceptance, grant.persist_completion,
                       core.name, addr=addr)
        if invalidate:
            if grant.reflush:
                # Re-flushing a line whose previous persist is still in
                # flight: the cache has held no valid copy since that
                # earlier flush, so a load can no longer overtake this
                # one and hit the caches.  This is what makes repeated
                # flush+load of a single cacheline (B+-tree key
                # shifting, Section 4.2) pay the full RAP cost on G1.
                if line in core.recent_flushes:
                    core.recent_flushes.remove(line)
            else:
                core.recent_flushes.append(line)
        return max(now, grant.issue_ready) + cost

    def nt_store_line(self, now: Cycles, addr: int, core: "Core") -> Cycles:
        """One 64 B non-temporal store; returns instruction finish time.

        Pushed through the WPQ like a flush (see :meth:`flush_line`).
        """
        trace = self.trace
        if trace is not None:
            trace.on_op(now)
        line = addr // CACHELINE_SIZE
        self.caches.invalidate(line)
        region = self._route
        if not region.base <= addr < region.end:
            region = self.region_of(addr)
        channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
        grant = channel.write(now, addr)
        acceptance = grant.acceptance
        if region.spec.remote:
            acceptance += region.spec.remote_write_adder
            channel.inflight.add(line, grant.persist_completion + region.spec.remote_persist_adder)
        core.pending_acceptances.append(acceptance)
        if trace is not None:
            trace.span("persist", "nt-store", now, acceptance, core.name, addr=addr)
            trace.span("persist", "drain", acceptance, grant.persist_completion,
                       core.name, addr=addr)
        return max(now, grant.issue_ready) + NTSTORE_ISSUE

    # -- internals ---------------------------------------------------------------

    def _issue_prefetches(self, now: Cycles, lines: list[int]) -> None:
        """Fill each prefetch candidate not cached or in flight into L2/L3."""
        caches = self.caches
        l1, l2, l3 = caches.l1, caches.l2, caches.l3
        inflight = self._inflight_fills
        for line in lines:
            # Residency first: most candidates are already cached, and
            # the set lookups are free of side effects.
            if (
                line in l3.sets.get(line % l3.n_sets, ())
                or line in l2.sets.get(line % l2.n_sets, ())
                or line in l1.sets.get(line % l1.n_sets, ())
            ):
                continue
            addr = line * CACHELINE_SIZE
            region = self._route
            if not region.base <= addr < region.end:
                try:
                    region = self.region_of(addr)
                except AddressError:
                    continue
            fill_done = inflight.get(line)
            if fill_done is not None and fill_done > now:
                continue
            channel = region.channels[(addr - region.base) // INTERLEAVE_BYTES % region.n_channels]
            finish = channel.read(now, addr, False)[0]
            if region.spec.remote:
                finish += region.spec.remote_read_adder
            writebacks = caches.fill(line, False, False)
            if writebacks:
                self._handle_llc_writebacks(writebacks, now)
            inflight[line] = finish
            self.prefetch_issued += 1
            if len(inflight) > 65536:
                inflight = self._inflight_fills = {
                    key: value for key, value in inflight.items() if value > now
                }

    def _handle_llc_writebacks(self, lines: tuple[int, ...], now: Cycles) -> None:
        for line in lines:
            addr = line * CACHELINE_SIZE
            try:
                region = self.region_of(addr)
            except AddressError:
                continue
            channel = region.channel_for(addr)
            channel.write(now, addr)

    def reset_memory_system(self) -> None:
        """Clear caches, buffers, queues and prefetch state (not counters)."""
        self.caches.clear()
        self.prefetch.reset()
        self._inflight_fills.clear()
        for region in self.regions:
            for channel in region.channels:
                channel.reset()


#: Clears the byte-in-line bits of an address (see ``cacheline_base``).
_LINE_MASK = ~(CACHELINE_SIZE - 1)


class Core:
    """One hardware thread executing memory operations on a Machine.

    Every data operation walks the cachelines ``[addr, addr + size)``
    touches (at least one) in one ``while`` loop: a one-line operation,
    the common case, costs one machine call and nothing else.
    """

    def __init__(self, machine: Machine, name: str = "cpu0") -> None:
        self.machine = machine
        self.name = name
        self.now: Cycles = 0.0
        self.last_fence: str = "mfence"
        #: Acceptance times of flushes no fence has waited for yet.
        self.pending_acceptances: list[Cycles] = []
        #: The sfence load-reorder window: lines whose recent flush a
        #: load may still overtake (see Machine.flush_line).
        self.recent_flushes: deque[int] = deque(
            maxlen=max(machine.config.timing.sfence_reorder_window, 1)
        )
        self.loads = 0
        self.stores = 0
        self.flushes = 0
        self.fences = 0

    # -- data operations ---------------------------------------------------------

    def load(self, addr: int, size: int = 8) -> Cycles:
        """Load ``size`` bytes; returns the cycles this took."""
        start = self.now
        demand_load = self.machine.demand_load
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.loads += 1
            self.now = demand_load(self.now, line_addr, self)
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def store(self, addr: int, size: int = 8) -> Cycles:
        """Store ``size`` bytes through the cache; returns cycles taken."""
        start = self.now
        demand_store = self.machine.demand_store
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.stores += 1
            self.now = demand_store(self.now, line_addr, self)
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def nt_store(self, addr: int, size: int = 64) -> Cycles:
        """Non-temporal store of ``size`` bytes (cache-bypassing)."""
        start = self.now
        nt_store_line = self.machine.nt_store_line
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.stores += 1
            self.now = nt_store_line(self.now, line_addr, self)
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def stream_load(self, addr: int, size: int = 64) -> Cycles:
        """SIMD streaming load (no cache fill, no prefetch training)."""
        start = self.now
        stream_load = self.machine.stream_load
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.loads += 1
            self.now = stream_load(self.now, line_addr) + STREAM_LOAD_ISSUE
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    # -- persistence primitives -----------------------------------------------------

    def clwb(self, addr: int, size: int = 64) -> Cycles:
        """Cache line write back; invalidates on G1, retains on G2."""
        start = self.now
        flush_line = self.machine.flush_line
        invalidate = not self.machine.config.clwb_retains
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.flushes += 1
            self.now = flush_line(self.now, line_addr, self, invalidate)
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def clflushopt(self, addr: int, size: int = 64) -> Cycles:
        """Optimized cache line flush: always invalidates, weakly ordered."""
        start = self.now
        flush_line = self.machine.flush_line
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.flushes += 1
            self.now = flush_line(self.now, line_addr, self, True)
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def clflush(self, addr: int, size: int = 64) -> Cycles:
        """Legacy serializing flush: invalidates and waits for acceptance."""
        start = self.now
        flush_line = self.machine.flush_line
        line_addr, last = addr & _LINE_MASK, (addr + size - 1) & _LINE_MASK
        while True:
            self.flushes += 1
            self.now = flush_line(self.now, line_addr, self, True) + CLFLUSH_ISSUE
            if self.pending_acceptances:
                self.now = max(self.now, self.pending_acceptances[-1])
            if line_addr >= last:
                return self.now - start
            line_addr += CACHELINE_SIZE

    def sfence(self) -> Cycles:
        """Store fence: waits for WPQ acceptance of prior flushes only."""
        start = self.now
        self.fences += 1
        target = max(self.pending_acceptances, default=start)
        self.now = max(start + SFENCE_COST, target)
        self.pending_acceptances.clear()
        self.last_fence = "sfence"
        if self.machine.trace is not None:
            self._trace_fence("sfence", start)
        return self.now - start

    def mfence(self) -> Cycles:
        """Full fence: like sfence, but also orders subsequent loads."""
        start = self.now
        self.fences += 1
        target = max(self.pending_acceptances, default=start)
        self.now = max(start + MFENCE_COST, target)
        self.pending_acceptances.clear()
        self.recent_flushes.clear()
        self.last_fence = "mfence"
        if self.machine.trace is not None:
            self._trace_fence("mfence", start)
        return self.now - start

    def _trace_fence(self, kind: str, start: Cycles) -> None:
        """Emit a persist span for one executed fence (traced runs only)."""
        trace = self.machine.trace
        trace.span("persist", kind, start, self.now, self.name)
        trace.on_op(self.now)

    def fence(self, kind: str = "sfence") -> Cycles:
        """Dispatch to sfence/mfence by name (benchmark convenience)."""
        if kind == "sfence":
            return self.sfence()
        if kind == "mfence":
            return self.mfence()
        raise ValueError(f"unknown fence kind {kind!r}")

    def tick(self, cycles: Cycles) -> None:
        """Burn ``cycles`` of pure compute."""
        self.now += cycles

    def persist(self, addr: int, size: int = 64, fence: str = "sfence") -> Cycles:
        """Persistence barrier: clwb over the range, then a fence."""
        start = self.now
        self.clwb(addr, size)
        self.fence(fence)
        return self.now - start
