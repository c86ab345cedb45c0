"""Shared experiment harness machinery: reports, sweeps, multi-threading.

Every experiment module produces an :class:`ExperimentReport` — named
series over a shared x-axis — that renders as the table/rows the
corresponding paper figure plots, and that the paper claims
(:mod:`repro.validate`) check shape properties against.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.common.units import fmt_size, kib, mib
from repro.system.machine import Core


def _canonical_timeseries(timeseries: dict | None) -> dict | None:
    """Deep-copy attached telemetry into pure JSON types.

    ``None`` stays ``None`` (untraced report — the distinction matters:
    cached sweep entries are always untraced).  Anything else is pushed
    through a JSON round-trip so tuples become lists and no caller
    aliases the report's mutable payload: a report that was serialized
    and parsed back must compare equal to the original.
    """
    if timeseries is None:
        return None
    return json.loads(json.dumps(timeseries))


@dataclass
class Series:
    """One plotted line: a name and y values over the report's x-axis."""

    name: str
    values: list[float]


@dataclass
class ExperimentReport:
    """A figure/table reproduction: x-axis plus one series per curve.

    Reports are plain data: they compare equal field-by-field and
    round-trip losslessly through :meth:`to_json` / :meth:`from_json`,
    which is what the on-disk result cache (:mod:`repro.runner`)
    relies on to replay a sweep without re-simulating it.

    ``x_is_size`` controls x-axis rendering in :meth:`to_csv` and
    :meth:`render`: ``True`` pretty-prints integer x values >= 1 KiB
    as sizes ("16KB"); ``False`` and ``None`` (the default) print them
    verbatim.  Experiments with byte-valued axes set the flag.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    x_is_size: bool | None = None
    #: Optional attached telemetry time-series (the ``to_obj()`` form of
    #: :class:`repro.trace.sampler.TimeSeries`), set by traced runs
    #: (``repro trace``); None for ordinary runs, so traced and
    #: untraced reports of the same experiment stay comparable.
    timeseries: dict | None = None

    def __post_init__(self) -> None:
        """Canonicalize attached telemetry so round-trips stay lossless.

        JSON turns tuples into lists; normalizing here (and in
        :meth:`to_dict` / :meth:`from_dict`) keeps a parsed-back report
        equal to the original whatever shape the caller handed in.
        """
        self.timeseries = _canonical_timeseries(self.timeseries)

    def add_series(self, name: str, values: list[float]) -> None:
        """Append one named curve (must match the x-axis length)."""
        if len(values) != len(self.x_values):
            raise ValueError(
                f"{self.experiment_id}/{name}: {len(values)} values for "
                f"{len(self.x_values)} x points"
            )
        self.series.append(Series(name, list(values)))

    def get(self, name: str) -> list[float]:
        """Values of the series called ``name``."""
        for series in self.series:
            if series.name == name:
                return series.values
        raise KeyError(name)

    def value(self, name: str, x) -> float:
        """One point of one series."""
        return self.get(name)[self.x_values.index(x)]

    def _format_x(self, x) -> str:
        """Render one x value, honouring the ``x_is_size`` flag."""
        if self.x_is_size and isinstance(x, int) and not isinstance(x, bool) and x >= 1024:
            return fmt_size(x)
        return str(x)

    def to_dict(self) -> dict:
        """A JSON-serializable dict capturing every field of the report."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": [{"name": s.name, "values": list(s.values)} for s in self.series],
            "notes": list(self.notes),
            "x_is_size": self.x_is_size,
            "timeseries": _canonical_timeseries(self.timeseries),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_dict` output (inverse mapping)."""
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            x_label=data["x_label"],
            x_values=list(data["x_values"]),
            series=[Series(s["name"], list(s["values"])) for s in data.get("series", [])],
            notes=list(data.get("notes", [])),
            x_is_size=data.get("x_is_size"),
            timeseries=_canonical_timeseries(data.get("timeseries")),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON; ``from_json`` restores an equal report."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Parse a report previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def to_csv(self, precision: int = 6) -> str:
        """Comma-separated rows: header + one row per x point."""
        def quote(cell: str) -> str:
            return f'"{cell}"' if ("," in cell or '"' in cell) else cell

        lines = [",".join(quote(h) for h in ([self.x_label] + [s.name for s in self.series]))]
        for index, x in enumerate(self.x_values):
            row = [self._format_x(x)] + [
                f"{series.values[index]:.{precision}g}" for series in self.series
            ]
            lines.append(",".join(quote(cell) for cell in row))
        return "\n".join(lines)

    def render(self, precision: int = 2) -> str:
        """ASCII table: one row per x point, one column per series."""
        headers = [self.x_label] + [series.name for series in self.series]
        rows = []
        for index, x in enumerate(self.x_values):
            row = [self._format_x(x)]
            for series in self.series:
                row.append(f"{series.values[index]:.{precision}f}")
            rows.append(row)
        widths = [
            max(len(headers[column]), *(len(row[column]) for row in rows)) if rows else len(headers[column])
            for column in range(len(headers))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(header.rjust(width) for header, width in zip(headers, widths)))
        for row in rows:
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Iteration-count profiles.  "fast" keeps a full ``repro run`` /
#: ``repro validate`` sweep in minutes; "full" is what EXPERIMENTS.md
#: records.
PROFILES = ("fast", "full")


def check_profile(profile: str) -> str:
    """Validate and return a profile name ("fast" or "full")."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; use one of {PROFILES}")
    return profile


def buffer_wss_grid(step_kib: int = 2, max_kib: int = 32) -> list[int]:
    """Small-WSS grid for the buffer-capacity figures (2..32 KB)."""
    return [kib(k) for k in range(step_kib, max_kib + 1, step_kib)]


def wide_wss_grid(profile: str = "fast") -> list[int]:
    """The 4KB..1GB-style log grid of Figures 6/8/13.

    The fast profile stops at 64 MB — past the LLC knee every curve is
    flat, and the full profile confirms it.
    """
    points = [kib(4), kib(16), kib(64), kib(256), mib(1), mib(4), mib(16), mib(64)]
    if profile == "full":
        points += [mib(256)]
    return points


def interleave_workers(
    workers: list[tuple[Core, Iterator[Callable[[], None]]]],
) -> float:
    """Run per-worker task streams in causal (min local time) order.

    Each worker is (core, iterator-of-thunks); a thunk performs one
    operation on that core (advancing ``core.now``).  Contention is
    produced by the shared machine underneath.  Returns the makespan.
    """
    heap = [(core.now, index) for index, (core, _) in enumerate(workers)]
    heapq.heapify(heap)
    start = min(core.now for core, _ in workers) if workers else 0.0
    while heap:
        _, index = heapq.heappop(heap)
        core, stream = workers[index]
        try:
            task = next(stream)
        except StopIteration:
            continue
        task()
        heapq.heappush(heap, (core.now, index))
    return max((core.now for core, _ in workers), default=start) - start


def split_round_robin(items: list, ways: int) -> list[list]:
    """Deal ``items`` to ``ways`` workers round-robin."""
    return [items[way::ways] for way in range(ways)]
