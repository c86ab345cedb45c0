"""Interval-sampled telemetry — the simulator's ``ipmwatch -interval``.

VTune's ``ipmwatch`` samples each DIMM's media/iMC byte counters at a
fixed wall-clock interval; the difference between consecutive samples
is the time-resolved traffic that makes buffer fill/evict dynamics
visible (the paper's §2.4 methodology).  :class:`TelemetrySampler`
does the same against simulated time: every ``interval`` cycles it
snapshots every device's :class:`~repro.stats.counters.TelemetryCounters`
and records the *per-interval deltas* together with instantaneous
occupancies (read/write buffer fill, WPQ depth, AIT hit ratio, store
buffer backlog) as one :class:`Sample` row per device.

Sampling is driven by the machine itself: each memory operation calls
the attached trace handle (see :mod:`repro.trace.session`), which asks
the sampler whether a sample boundary was crossed.  Because simulated
time only advances at operation boundaries, each crossing produces one
row stamped at the boundary cycle — exactly the semantics of a
counter read racing a workload loop.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.common.errors import ConfigError
from repro.sim.clock import Cycles
from repro.stats.counters import TelemetryCounters

#: Per-interval deltas of every TelemetryCounters field, in order.
COUNTER_COLUMNS = tuple(field.name for field in fields(TelemetryCounters))

#: Instantaneous state sampled alongside the counter deltas:
#: buffer occupancies in XPLines, WPQ slots busy, the interval's AIT
#: hit ratio, and the machine-wide store-buffer backlog (flush
#: acceptances no fence has consumed yet).
GAUGE_COLUMNS = (
    "rbuf_lines", "wbuf_lines", "wpq_occupancy",
    "ait_hit_ratio", "store_buffer_pending",
)

#: All value columns of a Sample row, in CSV order.
COLUMNS = COUNTER_COLUMNS + GAUGE_COLUMNS


@dataclass(frozen=True)
class Sample:
    """One device's telemetry over one sampling interval.

    ``ts`` is the boundary cycle the sample is stamped at; ``device``
    the DIMM name (``pm0``, ``dram0``, ...); ``values`` maps each
    :data:`COLUMNS` entry to its number for this interval.
    """

    ts: Cycles
    device: str
    values: dict

    def get(self, column: str) -> float:
        """One column's value (KeyError on an unknown column)."""
        return self.values[column]


class TimeSeries:
    """An ordered collection of :class:`Sample` rows with exporters."""

    def __init__(self, rows: list[Sample] | None = None) -> None:
        """Wrap ``rows`` (empty by default); rows stay append-ordered."""
        self.rows: list[Sample] = list(rows) if rows else []

    def __len__(self) -> int:
        """Number of sample rows."""
        return len(self.rows)

    def devices(self) -> list[str]:
        """Device names present, sorted."""
        return sorted({row.device for row in self.rows})

    def column(self, name: str, device: str | None = None) -> list[tuple[Cycles, float]]:
        """(ts, value) pairs of one column, optionally for one device."""
        return [
            (row.ts, row.values[name])
            for row in self.rows
            if device is None or row.device == device
        ]

    def extend(self, other: "TimeSeries") -> None:
        """Append another series' rows (multi-machine merge)."""
        self.rows.extend(other.rows)

    def to_csv(self, precision: int = 6) -> str:
        """CSV text: ``ts,device`` followed by every :data:`COLUMNS` entry."""
        lines = [",".join(("ts", "device") + COLUMNS)]
        for row in self.rows:
            cells = [f"{row.ts:.0f}", row.device]
            cells += [f"{row.values[c]:.{precision}g}" for c in COLUMNS]
            lines.append(",".join(cells))
        return "\n".join(lines)

    def to_obj(self) -> dict:
        """JSON-friendly form: columns plus one compact list per row."""
        return {
            "columns": list(("ts", "device") + COLUMNS),
            "rows": [
                [row.ts, row.device] + [row.values[c] for c in COLUMNS]
                for row in self.rows
            ],
        }

    @classmethod
    def from_obj(cls, data: dict) -> "TimeSeries":
        """Rebuild a series from :meth:`to_obj` output."""
        series = cls()
        columns = data["columns"][2:]
        for row in data["rows"]:
            series.rows.append(Sample(row[0], row[1], dict(zip(columns, row[2:]))))
        return series


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class TelemetrySampler:
    """Samples one machine's devices every ``interval`` simulated cycles.

    ``max_rows`` bounds memory on very long runs: rows past the cap
    are counted in :attr:`dropped` rather than stored (never silent —
    exporters and the CLI report the count).  When a ``tracer`` is
    given, the occupancy gauges are additionally emitted as Chrome
    counter events so Perfetto renders them as step charts alongside
    the event tracks.
    """

    def __init__(self, machine, interval: Cycles, tracer=None,
                 label: str = "machine0", max_rows: int = 200_000) -> None:
        """Attach to ``machine``, sampling every ``interval`` cycles."""
        if interval <= 0:
            raise ConfigError("sampling interval must be positive")
        self.machine = machine
        self.interval = float(interval)
        self.tracer = tracer
        self.label = label
        self.series = TimeSeries()
        self.dropped = 0
        self._max_rows = max_rows
        self._channels = machine.channels()
        self._prev = {
            name: channel.device.counters.snapshot()
            for name, channel in self._channels.items()
        }
        self._next = self.interval

    def maybe_sample(self, now: Cycles) -> None:
        """Record one sample if ``now`` crossed the next boundary.

        A jump across several boundaries (an idle stretch) yields a
        single row stamped at the first crossed boundary — matching a
        counter reader that was descheduled and reads once on wake-up.
        """
        if now < self._next:
            return
        boundary = self._next
        self.sample(boundary)
        steps = int((now - boundary) // self.interval) + 1
        self._next = boundary + steps * self.interval

    def sample(self, ts: Cycles) -> None:
        """Force one sample row per device, stamped at ``ts``."""
        pending = sum(len(core.pending_acceptances) for core in self.machine.cores)
        for name, channel in self._channels.items():
            counters = channel.device.counters
            delta = counters.delta(self._prev[name])
            self._prev[name] = counters.snapshot()
            values = {column: getattr(delta, column) for column in COUNTER_COLUMNS}
            device = channel.device
            read_buffer = getattr(device, "read_buffer", None)
            write_buffer = getattr(device, "write_buffer", None)
            values["rbuf_lines"] = len(read_buffer) if read_buffer is not None else 0
            values["wbuf_lines"] = len(write_buffer) if write_buffer is not None else 0
            values["wpq_occupancy"] = channel.wpq_occupancy(ts)
            values["ait_hit_ratio"] = _ratio(
                delta.ait_hits, delta.ait_hits + delta.ait_misses
            )
            values["store_buffer_pending"] = pending
            if len(self.series.rows) < self._max_rows:
                self.series.rows.append(Sample(ts, name, values))
            else:
                self.dropped += 1
            if self.tracer is not None:
                track = f"{self.label}.{name}"
                self.tracer.counter("imc", "wpq_occupancy", ts,
                                    values["wpq_occupancy"], track)
                self.tracer.counter("rbuf", "rbuf_lines", ts,
                                    values["rbuf_lines"], track)
                self.tracer.counter("wbuf", "wbuf_lines", ts,
                                    values["wbuf_lines"], track)
