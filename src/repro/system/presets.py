"""Testbed presets: the paper's two servers as machine configurations.

``g1_machine()`` builds the 1st-generation testbed (Xeon Gold 6230 +
100-series Optane), ``g2_machine()`` the 2nd-generation one (Xeon Gold
5317 + 200-series Optane, eADR disabled).  Both expose the knobs the
paper's experiments vary: number of interleaved PM DIMMs (1 or 6),
prefetcher configuration, and optional remote-NUMA regions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

from repro.cache.hierarchy import CacheHierarchyConfig
from repro.cache.prefetch import PrefetcherConfig
from repro.common.rng import DEFAULT_SEED
from repro.common.units import gib
from repro.dimm.config import DramDimmConfig, OptaneDimmConfig
from repro.system.machine import (
    DRAM_BASE,
    PM_BASE,
    REMOTE_DRAM_BASE,
    REMOTE_DRAM_PERSIST_ADDER,
    REMOTE_DRAM_READ_ADDER,
    REMOTE_PM_BASE,
    REMOTE_PM_PERSIST_ADDER,
    REMOTE_PM_READ_ADDER,
    CoreTiming,
    Machine,
    MachineConfig,
    RegionSpec,
)

#: Address-space sizes of the preset regions.
PM_REGION_SIZE = gib(8)
DRAM_REGION_SIZE = gib(8)

#: Ambient (process-local) preset overrides; see :func:`preset_overrides`.
_AMBIENT: dict = {}


@contextmanager
def preset_overrides(optane: dict | None = None, timing: dict | None = None,
                     seed: int | None = None):
    """Apply field overrides to every preset machine built in the block.

    The fidelity oracle's mutation-smoke mode
    (:mod:`repro.validate.mutations`) and seed-shift determinism check
    flip simulator design knobs *globally* — e.g. shrink the read
    buffer to one XPLine, or switch write-buffer eviction to FIFO —
    without threading parameters through every experiment.  ``optane``
    fields are ``replace``d into the machine's
    :class:`~repro.dimm.config.OptaneDimmConfig` and ``timing`` into
    its :class:`~repro.system.machine.CoreTiming` *after* any explicit
    per-call configuration, so the override wins even for experiments
    that build custom configs.  ``seed`` replaces the machine seed.

    Process-local: worker processes of a parallel sweep never see the
    ambient state, so mutated validation runs must execute serially
    and uncached (``repro.validate`` enforces both).  Overrides do not
    nest — entering a second context while one is active raises.
    """
    if _AMBIENT:
        raise RuntimeError("preset_overrides does not nest")
    _AMBIENT.update({"optane": dict(optane or {}), "timing": dict(timing or {}),
                     "seed": seed})
    try:
        yield
    finally:
        _AMBIENT.clear()


def _apply_ambient(config: MachineConfig) -> MachineConfig:
    """Fold any active ambient overrides into a finished config."""
    if not _AMBIENT:
        return config
    if _AMBIENT["optane"]:
        config = replace(config, optane=replace(config.optane, **_AMBIENT["optane"]))
    if _AMBIENT["timing"]:
        config = replace(config, timing=replace(config.timing, **_AMBIENT["timing"]))
    if _AMBIENT["seed"] is not None:
        config = replace(config, seed=_AMBIENT["seed"])
    return config


def _regions(pm_dimms: int, remote_pm: bool, remote_dram: bool) -> tuple[RegionSpec, ...]:
    regions = [
        RegionSpec(
            name="pm",
            kind="pm",
            base=PM_BASE,
            size=PM_REGION_SIZE,
            dimms=pm_dimms,
        ),
        RegionSpec(name="dram", kind="dram", base=DRAM_BASE, size=DRAM_REGION_SIZE),
    ]
    if remote_pm:
        regions.append(
            RegionSpec(
                name="pm_remote",
                kind="pm",
                base=REMOTE_PM_BASE,
                size=PM_REGION_SIZE,
                dimms=pm_dimms,
                remote=True,
                remote_read_adder=REMOTE_PM_READ_ADDER,
                remote_write_adder=80.0,
                remote_persist_adder=REMOTE_PM_PERSIST_ADDER,
            )
        )
    if remote_dram:
        regions.append(
            RegionSpec(
                name="dram_remote",
                kind="dram",
                base=REMOTE_DRAM_BASE,
                size=DRAM_REGION_SIZE,
                remote=True,
                remote_read_adder=REMOTE_DRAM_READ_ADDER,
                remote_write_adder=40.0,
                remote_persist_adder=REMOTE_DRAM_PERSIST_ADDER,
            )
        )
    return tuple(regions)


def g1_machine(
    pm_dimms: int = 1,
    prefetchers: PrefetcherConfig | None = None,
    remote_pm: bool = False,
    remote_dram: bool = False,
    seed: int = DEFAULT_SEED,
    **config_overrides,
) -> Machine:
    """The G1 testbed: Xeon Gold 6230 + 100-series Optane DCPMM."""
    config = MachineConfig(
        caches=CacheHierarchyConfig.g1(),
        prefetchers=prefetchers if prefetchers is not None else PrefetcherConfig(),
        optane=OptaneDimmConfig.g1(),
        dram=DramDimmConfig(),
        timing=CoreTiming(),
        regions=_regions(pm_dimms, remote_pm, remote_dram),
        clwb_retains=False,
        frequency_ghz=2.1,
        seed=seed,
    )
    if config_overrides:
        config = replace(config, **config_overrides)
    return Machine(_apply_ambient(config))


def g2_machine(
    pm_dimms: int = 1,
    prefetchers: PrefetcherConfig | None = None,
    remote_pm: bool = False,
    remote_dram: bool = False,
    eadr: bool = False,
    seed: int = DEFAULT_SEED,
    **config_overrides,
) -> Machine:
    """The G2 testbed: Xeon Gold 5317 + 200-series Optane, eADR off.

    Differences from G1, per the paper: clwb retains the cacheline
    (paying a coherence cost), larger on-DIMM buffers, no periodic
    write-back, and generally higher buffer/DRAM latencies in cycles
    (the G2 server clocks higher).
    """
    config = MachineConfig(
        caches=CacheHierarchyConfig.g2(),
        prefetchers=prefetchers if prefetchers is not None else PrefetcherConfig(),
        optane=OptaneDimmConfig.g2(),
        dram=DramDimmConfig(read_latency=210.0, write_latency=210.0, persist_drain_latency=520.0),
        timing=CoreTiming(clwb_coherence_cost=150.0),
        regions=_regions(pm_dimms, remote_pm, remote_dram),
        clwb_retains=True,
        eadr=eadr,
        frequency_ghz=3.0,
        seed=seed,
    )
    if config_overrides:
        config = replace(config, **config_overrides)
    return Machine(_apply_ambient(config))


def machine_for(generation: int, **kwargs) -> Machine:
    """Build a preset machine by generation number (1 or 2)."""
    if generation == 1:
        return g1_machine(**kwargs)
    if generation == 2:
        return g2_machine(**kwargs)
    raise ValueError(f"unknown Optane generation {generation}")
