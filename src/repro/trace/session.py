"""Trace sessions: attach a tracer + sampler to every machine built.

Experiments construct their machines internally (often one per sweep
point), so tracing cannot be wired by handing a tracer to a specific
``Machine``.  Instead — like ETW or ``perf`` — a *session* is ambient:

    from repro.trace import session, to_chrome_trace

    with session(interval=1000) as sess:
        reports = fig07.run(1, "fast")        # unmodified experiment
    to_chrome_trace(sess.tracer)               # every machine captured

While a session is active, :class:`~repro.system.machine.Machine`
construction calls :func:`attach_if_active`, which gives the machine
and its components (iMC channels, DIMMs, AIT caches) one shared
:class:`MachineTrace` handle and starts a per-machine
:class:`~repro.trace.sampler.TelemetrySampler` when ``interval`` is
set.  Each machine becomes one Chrome-trace *process*
(``machine0``, ``machine1``, ...), keeping per-track timestamps
monotonic even when an experiment builds a fresh machine per point.

With no active session each component's one ``trace`` handle stays
``None`` and the instrumentation reduces to one attribute test per
operation.
Sessions are per-process: worker processes of a parallel sweep build
their machines far from the parent's session, so ``repro trace`` runs
experiments serially in-process.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.sim.clock import Cycles
from repro.trace.events import Tracer
from repro.trace.sampler import TelemetrySampler, TimeSeries

#: The ambient session, if any (set by the :func:`session` context
#: manager, read by Machine construction via :func:`attach_if_active`).
_ACTIVE: "TraceSession | None" = None


class MachineTrace:
    """The per-machine trace handle: the one trace object components hold.

    :meth:`TraceSession.attach` sets it as ``machine.trace`` and as
    ``.trace`` on each iMC channel, device and AIT cache; a core reads
    its machine's.  It bundles the session tracer, the machine's
    sampler (None when the session samples nothing) and the machine's
    track label.  :meth:`span`, :meth:`instant` and :meth:`counter`
    record on ``<label>.<component>``, the emitting component's
    ``name`` (the bare label when ``component`` is None); the tracer
    drops filtered categories.  The machine's hot paths call
    :meth:`on_op` once per memory operation.
    """

    __slots__ = ("tracer", "sampler", "label")

    def __init__(self, tracer: Tracer, sampler: TelemetrySampler | None,
                 label: str) -> None:
        """Bundle ``tracer``/``sampler`` under the machine's ``label``."""
        self.tracer = tracer
        self.sampler = sampler
        self.label = label

    def _track(self, component: str | None) -> str:
        return self.label if component is None else f"{self.label}.{component}"

    def span(self, category: str, name: str, start: Cycles, end: Cycles,
             component: str | None, **args) -> None:
        """Record a span covering [start, end] on ``component``'s track."""
        self.tracer.span(category, name, start, end, self._track(component), **args)

    def instant(self, category: str, name: str, ts: Cycles,
                component: str | None, **args) -> None:
        """Record a point event at ``ts`` on ``component``'s track."""
        self.tracer.instant(category, name, ts, self._track(component), **args)

    def counter(self, category: str, name: str, ts: Cycles, value: float,
                component: str | None) -> None:
        """Record one sample of counter ``name`` on ``component``'s track."""
        self.tracer.counter(category, name, ts, value, self._track(component))

    def on_op(self, now: Cycles) -> None:
        """Advance sampling to ``now`` (called per memory operation)."""
        if self.sampler is not None:
            self.sampler.maybe_sample(now)


class TraceSession:
    """One observation window: a tracer plus a sampler per machine."""

    def __init__(self, interval: Cycles | None = None, categories=None,
                 max_events: int = 200_000, max_rows: int = 200_000) -> None:
        """Create a session; ``interval=None`` disables sampling."""
        self.tracer = Tracer(categories, max_events=max_events)
        self.interval = interval
        self.max_rows = max_rows
        self.samplers: list[TelemetrySampler] = []
        self._machines = 0

    def attach(self, machine) -> None:
        """Instrument ``machine`` and its components with this session.

        Safe to call manually on a machine built outside the session
        window; machines built while the session is active are
        attached automatically.
        """
        label = f"machine{self._machines}"
        self._machines += 1
        sampler = None
        if self.interval is not None:
            sampler = TelemetrySampler(machine, self.interval,
                                       tracer=self.tracer, label=label,
                                       max_rows=self.max_rows)
            self.samplers.append(sampler)
        trace = MachineTrace(self.tracer, sampler, label)
        machine.trace = trace
        for channel in machine.channels().values():
            channel.trace = trace
            channel.device.trace = trace
            ait = getattr(getattr(channel.device, "media", None), "ait", None)
            if ait is not None:
                ait.trace = trace

    @property
    def machines(self) -> int:
        """How many machines this session has instrumented."""
        return self._machines

    def timeseries(self) -> TimeSeries:
        """All samplers' rows merged into one :class:`TimeSeries`.

        Rows keep per-sampler order; the ``device`` column alone does
        not disambiguate machines, so multi-machine consumers should
        iterate :attr:`samplers` (each carries its machine label).
        """
        merged = TimeSeries()
        for sampler in self.samplers:
            merged.extend(sampler.series)
        return merged

    def dropped_rows(self) -> int:
        """Total sampler rows discarded over the row cap."""
        return sum(sampler.dropped for sampler in self.samplers)

    def summary(self) -> str:
        """One-line human summary (the CLI prints this after a trace)."""
        counts = self.tracer.by_category()
        cats = " ".join(f"{name}={counts[name]}" for name in sorted(counts))
        parts = [
            f"{len(self.tracer.events)} events over {self._machines} "
            f"machine{'s' if self._machines != 1 else ''}",
            cats or "no events",
        ]
        if self.interval is not None:
            rows = sum(len(s.series) for s in self.samplers)
            parts.append(f"{rows} samples @ {self.interval:g} cycles")
        if self.tracer.dropped:
            parts.append(f"{self.tracer.dropped} events dropped (cap)")
        if self.dropped_rows():
            parts.append(f"{self.dropped_rows()} samples dropped (cap)")
        return ", ".join(parts)


def active_session() -> TraceSession | None:
    """The ambient session, or None when tracing is off."""
    return _ACTIVE


def attach_if_active(machine) -> None:
    """Attach ``machine`` to the ambient session, if one is active.

    Called by ``Machine.__init__``; a no-op (one global read) when no
    session is open.
    """
    if _ACTIVE is not None:
        _ACTIVE.attach(machine)


@contextmanager
def session(interval: Cycles | None = None, categories=None,
            max_events: int = 200_000, max_rows: int = 200_000):
    """Open an ambient :class:`TraceSession` for the ``with`` body.

    Every machine constructed inside the body is instrumented; the
    previous ambient session (if any) is restored on exit, so sessions
    nest without leaking.
    """
    global _ACTIVE
    previous = _ACTIVE
    current = TraceSession(interval=interval, categories=categories,
                           max_events=max_events, max_rows=max_rows)
    _ACTIVE = current
    try:
        yield current
    finally:
        _ACTIVE = previous
