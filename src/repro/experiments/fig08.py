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


def _panel(
    generation: int,
    profile: str,
    panel: str,
    title: str,
    curves: list[tuple[str, bool, str, PersistencyModel]],
) -> ExperimentReport:
    """One Figure 8 panel; ``curves`` lists (series name, sequential, mode, model)."""
    check_profile(profile)
    wss_points = wide_wss_grid(profile)
    max_ops = 5_000 if profile == "fast" else 40_000
    warmup_cap = 60_000 if profile == "fast" else 150_000
    report = ExperimentReport(
        experiment_id=f"fig8{panel}-g{generation}",
        title=title,
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    for name, sequential, mode, model in curves:
        values = []
        for wss in wss_points:
            bench = PointerChaseBench(machine_for(generation), wss, sequential)
            values.append(
                bench.run(mode, model, max_ops=max_ops, warmup_cap=warmup_cap).cycles_per_element
            )
        report.add_series(name, values)
    return report


def _curves(
    model: PersistencyModel, modes: tuple[tuple[str, str], ...]
) -> list[tuple[str, bool, str, PersistencyModel]]:
    """Sequential then random curves, one per (mode, series-name suffix)."""
    return [
        (f"{order}_{suffix}", sequential, mode, model)
        for order, sequential in (("seq", True), ("rand", False))
        for mode, suffix in modes
    ]


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """All three panels of Figure 8.

    (a) strict persistency, clwb vs nt-store; (b) the same under
    relaxed persistency (fence once per pass); (c) pure reads vs pure
    writes.  Every panel has sequential and random curves.
    """
    strict, relaxed = PersistencyModel.STRICT, PersistencyModel.RELAXED
    writes = (("clwb", "clwb"), ("nt-store", "nt-store"))
    breakdown = (("read", "rd"), ("write", "wr"))
    return [
        _panel(generation, profile, "a", f"Write with {strict.value} persistency (G{generation}), "
               "cycles/element", _curves(strict, writes)),
        _panel(generation, profile, "b", f"Write with {relaxed.value} persistency (G{generation}), "
               "cycles/element", _curves(relaxed, writes)),
        _panel(generation, profile, "c", f"Latency breakdown of pure reads and writes (G{generation})",
               _curves(strict, breakdown)),
    ]
