"""Exporters: Chrome ``trace_event`` JSON and time-series CSV/JSON.

The Chrome trace format (loadable in Perfetto or ``chrome://tracing``)
is a JSON object with a ``traceEvents`` list; each event carries a
phase (``X`` complete span, ``i`` instant, ``C`` counter, ``M``
metadata), a microsecond timestamp, and integer ``pid``/``tid``
identifiers.  :func:`to_chrome_trace` maps the simulator's tracks onto
that model:

* the part of a track name before the first ``.`` becomes the
  *process* (one per machine: ``machine0``, ``machine1``, ...),
* the remainder becomes the *thread* (one swim lane per component:
  ``pm0``, ``imc.pm0``, ``cpu0``),
* ``thread_name``/``process_name`` metadata events carry the real
  names, so Perfetto shows ``pm0`` instead of ``tid 3``,
* simulated cycles are converted to microseconds via
  ``cycles_per_us`` (default 1000, i.e. a nominal 1 GHz clock — the
  *relative* timing is what matters when reading a trace).

Events are sorted by timestamp before export, so within every track
``ts`` is monotonically non-decreasing — a property
:func:`validate_chrome_trace` checks (and CI asserts on the exported
artifact).
"""

from __future__ import annotations

import json
import pathlib

from repro.trace.events import TraceEvent, Tracer
from repro.trace.sampler import TimeSeries


def _split_track(track: str) -> tuple[str, str]:
    """Split a track name into (process, thread)."""
    if "." in track:
        process, thread = track.split(".", 1)
        return process, thread
    return "trace", track


def to_chrome_trace(source, cycles_per_us: float = 1000.0) -> dict:
    """Render a :class:`Tracer` (or an event list) as a Chrome trace dict.

    The result is ready for ``json.dump``; load the file in
    https://ui.perfetto.dev or ``chrome://tracing``.  ``cycles_per_us``
    sets the simulated-cycles-per-microsecond conversion.
    """
    events: list[TraceEvent] = source.events if isinstance(source, Tracer) else list(source)
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    trace_events: list[dict] = []

    for event in sorted(events, key=lambda e: e.ts):
        process, thread = _split_track(event.track)
        if process not in pids:
            pids[process] = len(pids) + 1
            trace_events.append({
                "ph": "M", "name": "process_name", "pid": pids[process],
                "tid": 0, "ts": 0, "args": {"name": process},
            })
        key = (process, thread)
        if key not in tids:
            tids[key] = len(tids) + 1
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pids[process],
                "tid": tids[key], "ts": 0, "args": {"name": thread},
            })
        record = {
            "ph": event.phase,
            "cat": event.category,
            "name": event.name,
            "ts": event.ts / cycles_per_us,
            "pid": pids[process],
            "tid": tids[key],
        }
        if event.phase == "X":
            record["dur"] = event.dur / cycles_per_us
        if event.phase == "i":
            record["s"] = "t"  # instant scope: thread
        if event.args:
            record["args"] = event.args
        trace_events.append(record)

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, source, cycles_per_us: float = 1000.0) -> pathlib.Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(to_chrome_trace(source, cycles_per_us), handle)
    return path


def validate_chrome_trace(source) -> dict:
    """Validate a Chrome trace file/dict; returns summary statistics.

    Checks the ``trace_event`` schema essentials: a ``traceEvents``
    list whose entries carry ``ph``/``name``/``ts``/``pid``/``tid``,
    span events carry ``dur``, and — per (pid, tid) track — ``ts`` is
    monotonically non-decreasing.  Raises ``ValueError`` on the first
    violation.  Returns ``{"events", "categories", "tracks"}`` so
    callers (the CI smoke step) can assert coverage, e.g. every
    event category present.
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source) as handle:
            data = json.load(handle)
    else:
        data = source
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError("not a Chrome trace: missing traceEvents list")
    events = data["traceEvents"]
    if not events:
        raise ValueError("trace contains no events")
    last_ts: dict[tuple, float] = {}
    categories: set[str] = set()
    for index, event in enumerate(events):
        for required in ("ph", "name", "ts", "pid", "tid"):
            if required not in event:
                raise ValueError(f"event #{index} missing {required!r}: {event}")
        if event["ph"] == "M":
            continue
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"span event #{index} missing 'dur': {event}")
        categories.add(event.get("cat", ""))
        track = (event["pid"], event["tid"])
        if event["ts"] < last_ts.get(track, float("-inf")):
            raise ValueError(
                f"event #{index} goes backwards on track {track}: "
                f"{event['ts']} < {last_ts[track]}"
            )
        last_ts[track] = event["ts"]
    return {
        "events": len(events),
        "categories": sorted(categories - {""}),
        "tracks": len(last_ts),
    }


def write_timeseries_csv(path, series: TimeSeries) -> pathlib.Path:
    """Write a :class:`TimeSeries` as CSV to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(series.to_csv() + "\n")
    return path


def write_timeseries_json(path, series: TimeSeries) -> pathlib.Path:
    """Write a :class:`TimeSeries` as JSON to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(series.to_obj(), handle)
    return path
