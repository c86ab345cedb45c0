"""Per-layer tracing for the benchmark's traced replay.

While a :class:`LayerTracer` is active, each layer's public functions
are replaced by wrappers that time every call and keep a span stack,
so a layer's *self* time is its spans' duration minus the part covered
by child spans of any layer.  Time outside every span (the benchmark's
own loop) is attributed to no layer, so self times sum to at most the
traced wall time.  Leaving the ``with`` block restores the originals;
the simulator itself is not edited and its outputs do not change.

Layers are named after the modules that hold the wrapped functions.
Functions the benchmark calls through their module (``machine_for``,
the microbenchmark kernels, ``interleave_workers``) are wrapped on that
module; methods are wrapped on their class.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from repro.buffers.read_buffer import ReadBuffer
from repro.buffers.write_buffer import WriteBuffer
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.prefetch import PrefetchEngine
from repro.core import microbench
from repro.datastores.cceh import CcehHashTable
from repro.dimm.optane import OptaneDimm
from repro.experiments import common
from repro.media.ait import AitCache
from repro.media.xpoint import XPointMedia
from repro.sim.inflight import InflightPersists
from repro.sim.ports import ServicePorts
from repro.system import presets
from repro.system.imc import IMCChannel
from repro.system.machine import Machine

#: (layer, owner, function names) for every wrapped function.
LAYERS = (
    ("system.build", presets, ("machine_for",)),
    ("system", Machine, ("demand_load", "demand_store", "flush_line", "nt_store_line",
                         "stream_load")),
    ("imc", IMCChannel, ("read", "write", "persist_stall")),
    ("cache", CacheHierarchy, ("access", "fill", "invalidate", "clean")),
    ("cache", PrefetchEngine, ("observe",)),
    ("dimm", OptaneDimm, ("read_line", "ingest_write")),
    ("rbuf", ReadBuffer, ("deliver", "install", "take")),
    ("wbuf", WriteBuffer, ("write", "poll", "adopt_from_read_buffer")),
    ("media", XPointMedia, ("read_xpline", "write_xpline")),
    ("media", AitCache, ("lookup_penalty",)),
    ("media", ServicePorts, ("acquire",)),
    ("sim", InflightPersists, ("add", "completion_for")),
    ("core", microbench, ("run_strided_read", "run_write_amplification",
                          "run_write_hit_ratio", "run_rap_iterations")),
    ("datastores", CcehHashTable, ("insert",)),
    ("experiments", common, ("interleave_workers",)),
)

#: Every per-layer metric, in print order, with its unit.
METRICS = (
    ("system.build_calls", "count"), ("system.build_s", "s"),
    ("system.ops", "count"), ("system.self_s", "s"),
    ("imc.calls", "count"), ("imc.self_s", "s"),
    ("imc.wpq_wait_cycles", "cycles"), ("imc.rap_stall_cycles", "cycles"),
    ("cache.calls", "count"), ("cache.self_s", "s"), ("cache.l1_hit_ratio", "ratio"),
    ("cache.prefetch_issued", "count"), ("cache.imc_read_ratio", "ratio"),
    ("dimm.reads", "count"), ("dimm.writes", "count"), ("dimm.self_s", "s"),
    ("rbuf.self_s", "s"), ("rbuf.hit_ratio", "ratio"),
    ("wbuf.self_s", "s"), ("wbuf.hit_ratio", "ratio"), ("wbuf.evictions", "count"),
    ("media.self_s", "s"), ("media.read_amplification", "ratio"),
    ("media.write_amplification", "ratio"), ("media.port_wait_cycles", "cycles"),
    ("ait.hit_ratio", "ratio"),
    ("sim.calls", "count"), ("sim.self_s", "s"),
    ("core.kernel_self_s", "s"),
    ("datastores.inserts", "count"), ("datastores.self_s", "s"),
    ("datastores.segment_splits", "count"),
    ("experiments.sched_self_s", "s"),
    ("trace_overhead", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerTracer:
    """Context manager that wraps every function in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Calls per wrapped function, keyed ``"Owner.name"``.
        self.calls: Counter = Counter()
        #: Simulated quantities read off arguments and returned grants.
        self.sim: Counter = Counter()
        self._stack: list[list] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        hooks = {
            "IMCChannel.write": self._on_wpq_write,
            "IMCChannel.persist_stall": self._on_persist_stall,
            "CacheHierarchy.access": self._on_cache_access,
            "ServicePorts.acquire": self._on_port_acquire,
        }
        for layer, owner, names in LAYERS:
            for name in names:
                original = getattr(owner, name)
                key = f"{getattr(owner, '__name__', owner).rsplit('.', 1)[-1]}.{name}"
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, key, original, hooks.get(key)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _wrap(self, layer: str, key: str, fn, hook):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[layer] += elapsed - frame[0]
                calls[key] += 1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- hooks: simulated quantities at the layer boundary ---------------------

    def _on_wpq_write(self, args, grant) -> None:
        now = args[1]
        self.sim["wpq_wait_cycles"] += grant.issue_ready - now

    def _on_persist_stall(self, args, completion) -> None:
        # Only loads stall on an in-flight persist; flush_line's lookup
        # merely asks whether one exists.
        parent = self._stack[-1][1] if self._stack else ""
        if completion is not None and parent in ("Machine.demand_load", "Machine.stream_load"):
            self.sim["rap_stall_cycles"] += completion - args[1]

    def _on_cache_access(self, args, result) -> None:
        self.sim["cache_accesses"] += 1
        if result.hit_level == 1:
            self.sim["l1_hits"] += 1

    def _on_port_acquire(self, args, grant) -> None:
        # Media ports only: DRAM devices reach ServicePorts from the imc layer.
        parent = self._stack[-1][1] if self._stack else ""
        if parent.startswith("XPointMedia."):
            self.sim["port_wait_cycles"] += grant.start - args[1]

    # -- metrics ------------------------------------------------------------------

    def _layer_calls(self, prefix: str) -> int:
        return sum(count for key, count in self.calls.items() if key.startswith(prefix))

    def metrics(self, records: list[dict], trace_overhead: float) -> dict[str, float]:
        """Every metric of :data:`METRICS` for the traced replay of ``records``."""
        pm: Counter = Counter()
        every: Counter = Counter()
        prefetch_issued = splits = 0
        for record in records:
            for device, counters in record.get("counters", {}).items():
                every.update(counters)
                if device.startswith("pm"):
                    pm.update(counters)
            prefetch_issued += record.get("prefetch_issued", 0)
            splits += record.get("segment_splits", 0)
        calls = self.calls
        return {
            "system.build_calls": calls["presets.machine_for"],
            "system.build_s": self.self_s["system.build"],
            "system.ops": self._layer_calls("Machine."),
            "system.self_s": self.self_s["system"],
            "imc.calls": self._layer_calls("IMCChannel."),
            "imc.self_s": self.self_s["imc"],
            "imc.wpq_wait_cycles": self.sim["wpq_wait_cycles"],
            "imc.rap_stall_cycles": self.sim["rap_stall_cycles"],
            "cache.calls": self._layer_calls("CacheHierarchy.") + calls["PrefetchEngine.observe"],
            "cache.self_s": self.self_s["cache"],
            "cache.l1_hit_ratio": _ratio(self.sim["l1_hits"], self.sim["cache_accesses"]),
            "cache.prefetch_issued": prefetch_issued,
            "cache.imc_read_ratio": _ratio(every["imc_read_bytes"], every["demand_read_bytes"]),
            "dimm.reads": calls["OptaneDimm.read_line"],
            "dimm.writes": calls["OptaneDimm.ingest_write"],
            "dimm.self_s": self.self_s["dimm"],
            "rbuf.self_s": self.self_s["rbuf"],
            "rbuf.hit_ratio": _ratio(pm["read_buffer_hits"],
                                     pm["read_buffer_hits"] + pm["read_buffer_misses"]),
            "wbuf.self_s": self.self_s["wbuf"],
            "wbuf.hit_ratio": _ratio(pm["write_buffer_hits"],
                                     pm["write_buffer_hits"] + pm["write_buffer_misses"]),
            "wbuf.evictions": pm["write_buffer_evictions"],
            "media.self_s": self.self_s["media"],
            "media.read_amplification": _ratio(pm["media_read_bytes"], pm["imc_read_bytes"]),
            "media.write_amplification": _ratio(pm["media_write_bytes"], pm["imc_write_bytes"]),
            "media.port_wait_cycles": self.sim["port_wait_cycles"],
            "ait.hit_ratio": _ratio(pm["ait_hits"], pm["ait_hits"] + pm["ait_misses"]),
            "sim.calls": self._layer_calls("InflightPersists."),
            "sim.self_s": self.self_s["sim"],
            "core.kernel_self_s": self.self_s["core"],
            "datastores.inserts": calls["CcehHashTable.insert"],
            "datastores.self_s": self.self_s["datastores"],
            "datastores.segment_splits": splits,
            "experiments.sched_self_s": self.self_s["experiments"],
            "trace_overhead": trace_overhead,
        }
