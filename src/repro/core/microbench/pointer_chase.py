"""Pointer-chase latency benchmark (paper Section 3.6, Figure 8).

The working set is a circular linked list of 256-byte, XPLine-aligned
elements (the paper's ``working_set_unit``: a ``next`` pointer in the
first cacheline, a pad area in the rest).  Per element the benchmark:

* follows ``next`` (a dependent load — the read side),
* updates one pad cacheline and persists it (the write side),

under a configurable persist type (clwb / nt-store), persistency model
(strict / relaxed) and chain order (sequential / random).  Pure-read
and pure-write variants isolate the two sides: pure reads only chase
pointers; pure writes take the element addresses from a DRAM array and
never read PM.

Because full passes over gigabyte working sets are too slow to repeat,
measurement is capped at ``max_ops`` chain steps after a warm-up of
``warmup_ops`` steps — the chain is uniformly random, so a partial
traversal is statistically equivalent to a full pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.persist.persistency import PersistencyModel
from repro.system.machine import Machine
from repro.workloads.patterns import circular_chain


@dataclass(frozen=True)
class ChaseResult:
    """Average per-element latency for one configuration."""

    wss: int
    mode: str  # clwb | nt-store | read | write
    sequential: bool
    persistency: PersistencyModel
    cycles_per_element: float
    elements: int

    @property
    def label(self) -> str:
        """Figure-8 series name (e.g. \"rand_clwb\")."""
        order = "seq" if self.sequential else "rand"
        return f"{order}_{self.mode}"


#: Relaxed-model epoch length when a pass boundary is not reached
#: (the paper fences once per pass over the list).
_RELAXED_EPOCH = 256


class PointerChaseBench:
    """Reusable pointer-chase kernel over one machine."""

    def __init__(
        self,
        machine: Machine,
        wss: int,
        sequential: bool,
        region: str = "pm",
        seed: int = 1234,
    ) -> None:
        self.machine = machine
        self.wss = wss
        self.sequential = sequential
        self.element_count = wss // XPLINE_SIZE
        base = machine.region_spec(region).base
        self._element_addrs = [base + i * XPLINE_SIZE for i in range(self.element_count)]
        rng = DeterministicRng(seed)
        self._next = circular_chain(self.element_count, sequential, rng)
        # Pure-write variants use a randomized DRAM-held address array.
        self._write_order = rng.shuffled(range(self.element_count)) if not sequential else list(
            range(self.element_count)
        )

    def run(
        self,
        mode: str,
        persistency: PersistencyModel = PersistencyModel.STRICT,
        max_ops: int = 50_000,
        warmup_cap: int = 120_000,
    ) -> ChaseResult:
        """Measure one configuration; returns average cycles/element.

        Warm-up covers one full pass over the chain (so steady-state
        cache contents are established) up to ``warmup_cap`` steps; for
        working sets past the cap, cold behaviour *is* the steady state
        of interest (hit probability is negligible either way).
        """
        count = min(max_ops, max(self.element_count * 4, 2_000))
        warmup = min(self.element_count, warmup_cap)
        epoch = self.element_count if self.element_count < _RELAXED_EPOCH else _RELAXED_EPOCH
        strict = persistency is PersistencyModel.STRICT

        addrs = self._element_addrs
        nxt = self._next
        order = self._write_order
        n = self.element_count
        core = self.machine.new_core()
        load, store, nt_store = core.load, core.store, core.nt_store
        clwb, sfence = core.clwb, core.sfence

        if mode == "read":

            def step(cursor, position, i):
                load(addrs[cursor], 8)
                return nxt[cursor], position

        elif mode == "write":

            def step(cursor, position, i):
                pad = addrs[order[position]] + CACHELINE_SIZE
                store(pad, 8)
                clwb(pad)
                if strict or i % epoch == epoch - 1:
                    sfence()
                return cursor, (position + 1) % n

        elif mode == "clwb":

            def step(cursor, position, i):
                load(addrs[cursor], 8)
                pad = addrs[cursor] + CACHELINE_SIZE
                store(pad, 8)
                clwb(pad)
                if strict or i % epoch == epoch - 1:
                    sfence()
                return nxt[cursor], position

        elif mode == "nt-store":

            def step(cursor, position, i):
                load(addrs[cursor], 8)
                nt_store(addrs[cursor] + CACHELINE_SIZE, CACHELINE_SIZE)
                if strict or i % epoch == epoch - 1:
                    sfence()
                return nxt[cursor], position

        else:
            raise ValueError(f"unknown pointer-chase mode {mode!r}")

        cursor = position = 0
        for i in range(warmup):
            cursor, position = step(cursor, position, i)
        start = core.now
        for i in range(count):
            cursor, position = step(cursor, position, i)
        cycles = (core.now - start) / count
        return ChaseResult(
            wss=self.wss,
            mode=mode,
            sequential=self.sequential,
            persistency=persistency,
            cycles_per_element=cycles,
            elements=count,
        )
