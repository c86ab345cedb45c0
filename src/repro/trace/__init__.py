"""repro.trace — time-resolved telemetry and hierarchical event tracing.

The observability layer: where :mod:`repro.stats.counters` gives
cumulative before/after deltas (``ipmwatch`` read twice), this package
gives the *time-resolved* view every buffering phenomenon in the paper
lives in — buffer fill/evict dynamics, the WPQ drain cadence under
read-after-persist, periodic write-back pulses, AIT-cache thrash
onset.  Three coordinated pieces:

* :mod:`repro.trace.sampler` — interval-sampled per-device telemetry
  (``ipmwatch -interval`` for the simulator): per-interval counter
  deltas plus buffer/WPQ/store-buffer occupancies as a
  :class:`TimeSeries` of :class:`Sample` rows;
* :mod:`repro.trace.events` — the hierarchical event model: a
  :class:`Tracer` collecting span/instant/counter events in seven
  categories (``cache rbuf wbuf imc media ait persist``), emitted by
  the machine's components through one nullable per-machine handle
  (zero recording cost when no session is attached);
* :mod:`repro.trace.emit` — exporters: Chrome ``trace_event`` JSON
  (drop the file into https://ui.perfetto.dev) and time-series
  CSV/JSON, plus a schema validator CI asserts on.

:mod:`repro.trace.session` ties them together ETW-style: machines
built while a :func:`session` is open are instrumented automatically,
so any unmodified experiment can be traced (the ``repro trace`` CLI
subcommand does exactly this).

Tracing is observational by construction: every emitter reads
simulation state without mutating it, so traced and untraced runs
produce bit-identical experiment results (asserted by the test suite).
"""

from repro.trace.emit import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_timeseries_csv,
    write_timeseries_json,
)
from repro.trace.events import CATEGORIES, TraceEvent, Tracer
from repro.trace.sampler import COLUMNS, Sample, TelemetrySampler, TimeSeries
from repro.trace.session import (
    TraceSession,
    active_session,
    attach_if_active,
    session,
)

__all__ = [
    "CATEGORIES",
    "COLUMNS",
    "Sample",
    "TelemetrySampler",
    "TimeSeries",
    "TraceEvent",
    "TraceSession",
    "Tracer",
    "active_session",
    "attach_if_active",
    "session",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_timeseries_csv",
    "write_timeseries_json",
]

