"""The benchmark's two workloads.

A workload turns ``(seed, round)`` into a *design* — the list of points
one round runs — outside the timed region, then executes the design as
a closed loop with a single caller: each timed call starts when the
previous one returned.  Each sweep point builds a fresh machine (its
caches and buffers start empty, as in the paper's per-point method)
and makes one kernel call; ``cceh_insert`` times single inserts on
tables pre-populated during set-up.

Designs are stratified: every round covers the same grid of
(generation, knob, working-set bin) cells and the seed only picks the
value inside each cell, so the cost of a round hardly depends on the
seed while no two rounds or seeds feed the simulator identical inputs.

Work is counted from the design (simulated 64 B operations for the
sweeps, key inserts for ``cceh_insert``), never from the program's own
counters, so a batched fast path gets exactly the same credit.

Timed seconds are nominal: each sweep point, and each group of inserts,
is preceded by a reference burst whose host time scales the call's host
seconds to a host of nominal speed (:mod:`reference`).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.core import microbench
from repro.datastores.cceh import CcehHashTable
from repro.dimm.config import OptaneDimmConfig
from repro.experiments import common
from repro.experiments.cceh_harness import DRIVER_OVERHEAD
from repro.persist.allocator import PmHeap
from repro.persist.persistency import FenceKind, FlushKind
from repro.system import presets

import reference

KIB = 1024

#: Points a round keeps in the tiny size the smoke tests use.
TINY_POINTS = 4

NO_PREFETCH = PrefetcherConfig.none()

READ_BUFFER_BYTES = {1: OptaneDimmConfig.g1().read_buffer_bytes,
                     2: OptaneDimmConfig.g2().read_buffer_bytes}


@dataclass
class RoundResult:
    """What executing one design produced."""

    #: Nominal seconds (host seconds scaled by :func:`reference.scale`) of
    #: every timed call (one sample per attempted point).
    samples: list[float] = field(default_factory=list)
    #: Nominal seconds of the program's work: the timed calls and, for
    #: cceh_insert, their scheduling.  The benchmark's bookkeeping is outside.
    wall_s: float = 0.0
    #: Every host-to-nominal factor the round applied.
    scales: list[float] = field(default_factory=list)
    #: Work the design specified (simulated 64 B ops, or inserts).
    work: int = 0
    failed: int = 0
    #: JSON-able simulated outputs and counter deltas, one per point
    #: (sweeps) or per worker group (cceh_insert).
    records: list[dict] = field(default_factory=list)


def _rng(workload: str, seed: int, tag) -> random.Random:
    # String seeds are hashed with SHA-512, so they are stable across
    # processes (unlike hash()).
    return random.Random(f"{workload}/{seed}/{tag}")


def _wss(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform working-set size in [lo, hi], in whole XPLines."""
    return XPLINE_SIZE * rng.randint(lo // XPLINE_SIZE, hi // XPLINE_SIZE)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal
    sub-ranges, in random order: the values a round draws differ with the
    seed while their spread, and so the round's cost, hardly does."""
    width = (hi - lo) / count
    values = [rng.randint(round(lo + index * width), round(lo + (index + 1) * width))
              for index in range(count)]
    rng.shuffle(values)
    return values


def _stratified_wss(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """:func:`_stratified` working-set sizes in [lo, hi], in whole XPLines."""
    return [XPLINE_SIZE * xplines
            for xplines in _stratified(rng, lo // XPLINE_SIZE, hi // XPLINE_SIZE, count)]


def counter_deltas(machine, before: dict | None = None) -> dict:
    """Every device's telemetry counters (minus ``before``), JSON-able."""
    out = {}
    for name in machine.registry.names():
        values = vars(machine.registry.get(name))
        base = (before or {}).get(name, {})
        out[name] = {key: value - base.get(key, 0) for key, value in values.items()}
    return out


# -- correctness checks ---------------------------------------------------------


def check_read_amplification(result, generation: int, cpx: int, wss: int) -> bool:
    """RA lies in [1, 4]; about 4/CpX well below the read buffer, 4 well above."""
    ra = result.read_amplification
    if not 1.0 - 1e-9 <= ra <= 4.0 + 1e-9:
        return False
    capacity = READ_BUFFER_BYTES[generation]
    if wss <= 0.75 * capacity:
        return math.isclose(ra, 4.0 / cpx, rel_tol=0.02)
    if wss >= 1.25 * capacity:
        return math.isclose(ra, 4.0, rel_tol=0.02)
    return True


def check_write_amplification(result, written: int) -> bool:
    """0 <= WA <= 4/k: a k-of-4 partial write moves at most one XPLine."""
    return 0.0 <= result.write_amplification <= 4.0 / written + 1e-9


def check_write_hit(result) -> bool:
    """Both hit ratios are fractions."""
    return 0.0 <= result.hit_ratio <= 1.0 and 0.0 <= result.inferred_hit_ratio <= 1.0


def check_rap(cycles) -> bool:
    """A RAP iteration takes a positive, finite number of cycles."""
    return math.isfinite(cycles) and cycles > 0


def check_rap_control(cycles_at_0: float, cycles_at_40: float) -> bool:
    """On G1, local-PM clwb+mfence RAP at distance 0 exceeds distance 40."""
    return cycles_at_0 > cycles_at_40


# -- sweep workloads ------------------------------------------------------------


@dataclass
class Point:
    """One timed call: build a fresh machine (prefetchers off), run one kernel on it."""

    generation: int
    machine_seed: int
    remote: bool
    kernel: str
    kwargs: dict
    work: int
    check: Callable[[object], bool]
    #: Tag of a point that takes part in a cross-point check.
    control: str | None = None

    def describe(self) -> dict:
        """JSON-able identity of the point (enums by value)."""
        return {
            "generation": self.generation, "seed": self.machine_seed,
            "remote": self.remote, "kernel": self.kernel,
            "kwargs": {key: getattr(value, "value", value) for key, value in self.kwargs.items()},
        }


def _result_dict(result) -> dict | float:
    if dataclasses.is_dataclass(result):
        return dataclasses.asdict(result)
    return result


class DimmRead:
    """Points of strided reads with flushes: every load reaches the DIMM read path."""

    #: WSS bins (KiB) on both sides of both read-buffer knees (16 and 22 KiB).
    WSS_BINS_KIB = ((2, 8), (8, 14), (14, 20), (20, 26), (26, 40), (40, 64))
    CYCLES_OVER_REGION = 4

    def points(self, rng: random.Random) -> list[Point]:
        """One round's read points: every (generation, WSS bin, CpX) cell."""
        points = []
        for generation in (1, 2):
            for lo, hi in self.WSS_BINS_KIB:
                sizes = _stratified_wss(rng, lo * KIB, hi * KIB, 4)
                for cpx, wss in zip((1, 2, 3, 4), sizes):
                    loads = self.CYCLES_OVER_REGION * (wss // XPLINE_SIZE) * cpx
                    points.append(Point(
                        generation, rng.randrange(2**31), False, "run_strided_read",
                        {"wss": wss, "cachelines_per_xpline": cpx,
                         "cycles_over_region": self.CYCLES_OVER_REGION},
                        work=2 * loads,  # one load + one clflushopt per address
                        check=partial(check_read_amplification, generation=generation,
                                      cpx=cpx, wss=wss),
                    ))
        return points


class DimmPersist:
    """Points of partial writes, random writes and read-after-persist loops."""

    PASSES = 4
    RAP_PASSES = 4
    RAP_LINES = 4 * KIB // CACHELINE_SIZE
    REGIONS = ("pm", "dram", "pm_remote", "dram_remote")
    #: Below and above both write-buffer capacities (12 and 16 KiB).
    WSS_BINS_KIB = ((2, 16), (16, 64))

    def _rap(self, rng, generation, region, flush, fence, distance, control=None):
        ops_per_iteration = 3 if flush is FlushKind.NT_STORE else 4
        return Point(
            generation, rng.randrange(2**31), True, "run_rap_iterations",
            {"region": region, "flush": flush, "fence": fence, "distance": distance,
             "passes": self.RAP_PASSES},
            work=self.RAP_PASSES * self.RAP_LINES * ops_per_iteration,
            check=check_rap, control=control,
        )

    def points(self, rng: random.Random) -> tuple[list[Point], list[Point]]:
        """One round's (cross-checked control points, other persist points)."""
        points = []
        for generation in (1, 2):
            for lo, hi in self.WSS_BINS_KIB:
                sizes = _stratified_wss(rng, lo * KIB, hi * KIB, 4)
                for written, wss in zip((1, 2, 3, 4), sizes):
                    points.append(Point(
                        generation, rng.randrange(2**31), False, "run_write_amplification",
                        {"wss": wss, "written_cachelines": written, "passes": self.PASSES,
                         "random_across_xplines": rng.random() < 0.5},
                        work=self.PASSES * (wss // XPLINE_SIZE) * written,
                        check=partial(check_write_amplification, written=written),
                    ))
            for lo, hi in ((4, 12), (16, 64)):
                wss = _wss(rng, lo * KIB, hi * KIB)
                points.append(Point(
                    generation, rng.randrange(2**31), False, "run_write_hit_ratio",
                    {"wss": wss, "writes_per_xpline_avg": 4},
                    work=4 * (wss // XPLINE_SIZE), check=check_write_hit,
                ))
            distances = iter(_stratified(rng, 0, 40, 4 * len(self.REGIONS)))
            for region in self.REGIONS:
                for flush in (FlushKind.CLWB, FlushKind.NT_STORE):
                    for fence in (FenceKind.SFENCE, FenceKind.MFENCE):
                        points.append(self._rap(rng, generation, region, flush, fence,
                                                next(distances)))
        controls = [
            self._rap(rng, 1, "pm", FlushKind.CLWB, FenceKind.MFENCE, distance,
                      control=f"d{distance}")
            for distance in (0, 40)
        ]
        return controls, points

    @staticmethod
    def cross_check(controls: dict) -> int:
        """Failed points found by comparing the control points."""
        if len(controls) < 2:
            return 0
        return 0 if check_rap_control(controls["d0"], controls["d40"]) else 2


class DimmSweep:
    """A seeded sweep of read and persist kernel calls, one fresh machine per call.

    Every round runs the points of :class:`DimmRead` and of
    :class:`DimmPersist` in one shuffled order.
    """

    name = "dimm_sweep"
    #: Rounds every run completes; they feed the digest and the traced replay.
    prefix_rounds = 2

    def setup(self, seed: int, tiny: bool) -> dict:
        """Sweeps need no prepared state beyond their first design."""
        state = {"seed": seed, "tiny": tiny}
        state["first_design"] = self.design(state, 0)
        return state

    def design(self, state: dict, round_index: int) -> list[Point]:
        """The points of one round (generated outside the timed region)."""
        rng = _rng(self.name, state["seed"], round_index)
        controls, persists = DimmPersist().points(rng)
        points = DimmRead().points(rng) + persists
        rng.shuffle(points)
        points = controls + points
        return points[:TINY_POINTS] if state["tiny"] else points

    def execute(self, state: dict, design: list[Point], record: bool) -> RoundResult:
        """Run every point of ``design`` and check its outputs.

        With ``record``, also keep each point's simulated outputs.
        """
        out = RoundResult()
        controls = {}
        for point in design:
            out.scales.append(reference.scale())
            start = perf_counter()
            try:
                machine = presets.machine_for(
                    point.generation,
                    seed=point.machine_seed,
                    prefetchers=NO_PREFETCH,
                    remote_pm=point.remote,
                    remote_dram=point.remote,
                )
                result = getattr(microbench, point.kernel)(machine, **point.kwargs)
            except Exception as error:  # a failing point is counted, not fatal
                out.samples.append((perf_counter() - start) * out.scales[-1])
                out.wall_s += out.samples[-1]
                out.failed += 1
                if record:
                    out.records.append({"point": point.describe(), "error": repr(error)})
                continue
            out.samples.append((perf_counter() - start) * out.scales[-1])
            out.wall_s += out.samples[-1]
            out.work += point.work
            if not point.check(result):
                out.failed += 1
            if point.control is not None:
                controls[point.control] = result
            if record:
                out.records.append({
                    "point": point.describe(),
                    "result": _result_dict(result),
                    "counters": counter_deltas(machine),
                    "prefetch_issued": machine.prefetch_issued,
                })
        out.failed += DimmPersist.cross_check(controls)
        return out

    def settle(self, state: dict, design: list[Point]) -> int:
        """Between-round work; sweep points leave nothing behind."""
        return 0

    def verify(self, state: dict) -> int:
        """End-of-run check; sweeps check every point as it runs."""
        return 0


# -- cceh_insert ------------------------------------------------------------------


@dataclass
class Lane:
    """One machine with a pre-populated CCEH table and its worker cores."""

    machine: object
    table: CcehHashTable
    cores: list
    keys: list[int]


class CcehInsert:
    """Fresh-key CCEH inserts from 1-5 simulated workers, each timed alone."""

    name = "cceh_insert"
    prefix_rounds = 4
    #: (generation, interleaved PM DIMMs) of the two lanes.
    LANES = ((1, 1), (2, 6))
    MAX_WORKERS = 5
    PREPOPULATE = 20_000
    GROUP_INSERTS = 200
    TINY_PREPOPULATE = 500
    TINY_GROUP_INSERTS = 10

    def setup(self, seed: int, tiny: bool) -> dict:
        """Build both lanes and pre-populate their tables (no memory traffic)."""
        rng = _rng(self.name, seed, "setup")
        state = {"seed": seed, "tiny": tiny, "prepopulated": set(), "lanes": []}
        count = self.TINY_PREPOPULATE if tiny else self.PREPOPULATE
        for generation, dimms in self.LANES:
            machine = presets.machine_for(generation, pm_dimms=dimms, seed=rng.randrange(2**31))
            table = CcehHashTable(PmHeap(machine).pm)
            keys = self._fresh_keys(rng, state["prepopulated"], count)
            for key in keys:
                table.insert(key, key)
            cores = [machine.new_core(f"worker{index}") for index in range(self.MAX_WORKERS)]
            state["lanes"].append(Lane(machine, table, cores, keys))
        state["first_design"] = self.design(state, 0)
        return state

    @staticmethod
    def _fresh_keys(rng: random.Random, taken: set, count: int) -> list[int]:
        """``count`` random keys not in ``taken`` (which they are added to)."""
        keys = []
        while len(keys) < count:
            key = rng.getrandbits(62)
            if key not in taken:
                taken.add(key)
                keys.append(key)
        return keys

    def design(self, state: dict, round_index: int) -> list[tuple[int, int, list[int]]]:
        """(lane, workers, keys) groups: every worker count once per lane."""
        rng = _rng(self.name, state["seed"], round_index)
        size = self.TINY_GROUP_INSERTS if state["tiny"] else self.GROUP_INSERTS
        taken = set(state["prepopulated"])
        groups = []
        for lane_index in range(len(self.LANES)):
            workers = list(range(1, self.MAX_WORKERS + 1))
            rng.shuffle(workers)
            for count in workers:
                groups.append((lane_index, count, self._fresh_keys(rng, taken, size)))
        return groups

    def execute(self, state: dict, design, record: bool) -> RoundResult:
        """Drive each group through the causal multi-core scheduler.

        With ``record``, also keep each group's simulated outputs.
        """
        out = RoundResult()
        for lane_index, workers, keys in design:
            lane = state["lanes"][lane_index]
            cores = lane.cores[:workers]
            # Barrier: a group's workers start together at the latest clock.
            start_at = max(core.now for core in lane.cores)
            for core in cores:
                core.tick(start_at - core.now)
            if record:
                before = counter_deltas(lane.machine)
                prefetched = lane.machine.prefetch_issued
                splits = lane.table.stats.segment_splits
            finish_cycles: list[float] = []
            # One reading per group: a burst per 0.1-ms insert would dwarf it.
            scale = reference.scale()
            out.scales.append(scale)

            def stream(core, share, table=lane.table):
                for key in share:
                    def task(key=key):
                        core.tick(DRIVER_OVERHEAD)
                        start = perf_counter()
                        try:
                            table.insert(key, key, core)
                        except Exception:  # counted as a failed insert
                            out.failed += 1
                        out.samples.append((perf_counter() - start) * scale)
                        finish_cycles.append(core.now)
                    yield task

            streams = [(core, stream(core, keys[index::workers]))
                       for index, core in enumerate(cores)]
            start = perf_counter()
            common.interleave_workers(streams)
            out.wall_s += (perf_counter() - start) * scale
            out.work += len(keys)
            if record:
                out.records.append({
                    "lane": lane_index, "workers": workers, "finish_cycles": finish_cycles,
                    "counters": counter_deltas(lane.machine, before),
                    "prefetch_issued": lane.machine.prefetch_issued - prefetched,
                    "segment_splits": lane.table.stats.segment_splits - splits,
                })
        return out

    def settle(self, state: dict, design) -> int:
        """Check, then remove, the round's keys (no memory traffic).

        Every round thus inserts into tables of the set-up size, so the
        cost of an insert and the process's memory do not grow with the
        number of rounds a run completes.  Returns the keys not found.
        """
        failed = 0
        for lane_index, _, keys in design:
            table = state["lanes"][lane_index].table
            for key in keys:
                try:
                    found = table.get(key)
                except KeyNotFoundError:
                    failed += 1
                    continue
                failed += found != key
                table.remove(key)
        return failed

    def verify(self, state: dict) -> int:
        """Structural invariants hold and every pre-populated key is retrievable."""
        failed = 0
        for lane in state["lanes"]:
            try:
                lane.table.check_invariants()
            except DataStoreError:
                return sum(len(lane.keys) for lane in state["lanes"])
            for key in lane.keys:
                try:
                    failed += lane.table.get(key) != key
                except KeyNotFoundError:
                    failed += 1
        return failed


WORKLOADS = {cls.name: cls for cls in (DimmSweep, CcehInsert)}
