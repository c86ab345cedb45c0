"""Experiment E6 — Figure 8: user-perceived latency across WSS.

Paper claim (C6): three latency levels — low while the working set
fits the on-DIMM buffers, a plateau (~400 cycles) bounded by the media
write drain, and a sharp climb once random reads must come from the
media.  The pure-read/pure-write breakdown shows *reads* cause the
climb while write latency is flat at any WSS; relaxed persistency only
helps below the plateau.
"""

from __future__ import annotations

from repro.core.microbench.pointer_chase import PointerChaseBench
from repro.experiments.common import ExperimentReport, check_profile, wide_wss_grid
from repro.persist.persistency import PersistencyModel
from repro.system.presets import machine_for


def _bench(generation: int, wss: int, sequential: bool) -> PointerChaseBench:
    machine = machine_for(generation)
    return PointerChaseBench(machine, wss, sequential)


def run_panel_strict(generation: int = 1, profile: str = "fast") -> ExperimentReport:
    """Panel (a): strict persistency, clwb vs nt-store, seq vs random."""
    return _run_persist_panel(generation, profile, PersistencyModel.STRICT, "a")


def run_panel_relaxed(generation: int = 1, profile: str = "fast") -> ExperimentReport:
    """Panel (b): relaxed persistency (fence once per pass)."""
    return _run_persist_panel(generation, profile, PersistencyModel.RELAXED, "b")


def _run_persist_panel(
    generation: int, profile: str, model: PersistencyModel, panel: str
) -> ExperimentReport:
    check_profile(profile)
    wss_points = wide_wss_grid(profile)
    max_ops = 5_000 if profile == "fast" else 40_000
    warmup_cap = 60_000 if profile == "fast" else 150_000
    report = ExperimentReport(
        experiment_id=f"fig8{panel}-g{generation}",
        title=f"Write with {model.value} persistency (G{generation}), cycles/element",
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    for sequential in (True, False):
        for mode in ("clwb", "nt-store"):
            values = []
            for wss in wss_points:
                bench = _bench(generation, wss, sequential)
                values.append(
                    bench.run(mode, model, max_ops=max_ops, warmup_cap=warmup_cap).cycles_per_element
                )
            order = "seq" if sequential else "rand"
            report.add_series(f"{order}_{mode}", values)
    return report


def run_panel_breakdown(generation: int = 1, profile: str = "fast") -> ExperimentReport:
    """Panel (c): pure reads vs pure writes."""
    check_profile(profile)
    wss_points = wide_wss_grid(profile)
    max_ops = 5_000 if profile == "fast" else 40_000
    warmup_cap = 60_000 if profile == "fast" else 150_000
    report = ExperimentReport(
        experiment_id=f"fig8c-g{generation}",
        title=f"Latency breakdown of pure reads and writes (G{generation})",
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    for sequential in (True, False):
        order = "seq" if sequential else "rand"
        for mode, label in (("read", f"{order}_rd"), ("write", f"{order}_wr")):
            values = []
            for wss in wss_points:
                bench = _bench(generation, wss, sequential)
                values.append(
                    bench.run(
                        mode, PersistencyModel.STRICT, max_ops=max_ops, warmup_cap=warmup_cap
                    ).cycles_per_element
                )
            report.add_series(label, values)
    return report


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """All three panels of Figure 8."""
    return [
        run_panel_strict(generation, profile),
        run_panel_relaxed(generation, profile),
        run_panel_breakdown(generation, profile),
    ]
