"""Tests for the repro.trace observability layer.

Covers the three guarantees ISSUE 4 promises: tracing is *observational*
(bit-identical experiment results with the tracer on or off), the
exported Chrome trace is schema-valid with monotonic per-track
timestamps, and the interval sampler resolves time-domain behaviour the
cumulative counters cannot (a non-constant WPQ occupancy during a RAP
run).
"""

import hashlib
import json

from collections import Counter

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import ConfigError
from repro.core.microbench import run_strided_read
from repro.core.microbench.rap import run_rap_iterations
from repro.experiments import fig02, fig07
from repro.persist import PmHeap
from repro.persist.persistency import FenceKind, FlushKind
from repro.system.presets import machine_for
from repro.trace import (
    CATEGORIES,
    Sample,
    TelemetrySampler,
    TimeSeries,
    Tracer,
    active_session,
    session,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_timeseries_csv,
    write_timeseries_json,
)


class TestTracer:
    def test_instant_span_counter(self):
        tracer = Tracer()
        tracer.instant("ait", "miss", 10.0, "pm0.ait")
        tracer.span("media", "read-xpline", 20.0, 35.0, "pm0")
        tracer.counter("imc", "wpq", 30.0, 2.0, "imc.pm0")
        assert len(tracer) == 3
        phases = [e.phase for e in tracer.events]
        assert phases == ["i", "X", "C"]
        assert tracer.events[1].dur == 15.0
        assert tracer.events[2].args == {"value": 2.0}

    def test_span_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.span("persist", "drain", 100.0, 90.0, "cpu0")
        assert tracer.events[0].dur == 0.0

    def test_category_filter(self):
        tracer = Tracer(categories=["imc"])
        assert tracer.wants("imc") and not tracer.wants("cache")
        tracer.instant("cache", "load-miss", 1.0, "cpu0")
        tracer.counter("imc", "wpq", 1.0, 1.0, "imc.pm0")
        assert [e.category for e in tracer.events] == ["imc"]

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigError):
            Tracer(categories=["imc", "nonsense"])

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            Tracer(max_events=0)

    def test_cap_counts_dropped(self):
        tracer = Tracer(max_events=3)
        for i in range(10):
            tracer.instant("persist", "store", float(i), "cpu0")
        assert len(tracer) == 3
        assert tracer.dropped == 7

    def test_by_category_and_tracks(self):
        tracer = Tracer()
        tracer.instant("rbuf", "hit", 1.0, "machine0.pm0")
        tracer.instant("rbuf", "miss", 2.0, "machine0.pm0")
        tracer.instant("wbuf", "hit", 3.0, "machine0.pm1")
        assert tracer.by_category() == {"rbuf": 2, "wbuf": 1}
        assert tracer.tracks() == ["machine0.pm0", "machine0.pm1"]

    def test_all_documented_categories_accepted(self):
        tracer = Tracer(categories=list(CATEGORIES))
        for category in CATEGORIES:
            assert tracer.wants(category)


class TestTimeSeries:
    def _series(self):
        from repro.trace.sampler import COLUMNS

        zero = {c: 0.0 for c in COLUMNS}
        series = TimeSeries()
        series.rows.append(Sample(1000.0, "pm0", dict(zero, wpq_occupancy=1.0)))
        series.rows.append(Sample(1000.0, "dram0", dict(zero)))
        series.rows.append(Sample(2000.0, "pm0", dict(zero, wpq_occupancy=2.0)))
        return series

    def test_devices_and_column(self):
        series = self._series()
        assert series.devices() == ["dram0", "pm0"]
        assert series.column("wpq_occupancy", device="pm0") == [
            (1000.0, 1.0), (2000.0, 2.0),
        ]
        assert len(series.column("wpq_occupancy")) == 3

    def test_roundtrip_obj(self):
        series = self._series()
        rebuilt = TimeSeries.from_obj(series.to_obj())
        assert len(rebuilt) == len(series)
        assert rebuilt.rows[0].device == "pm0"
        assert rebuilt.column("wpq_occupancy", device="pm0") == \
            series.column("wpq_occupancy", device="pm0")

    def test_obj_is_json_serializable(self):
        assert json.loads(json.dumps(self._series().to_obj()))["rows"]

    def test_csv_shape(self):
        text = self._series().to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("ts,device,imc_read_bytes")
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "pm0"

    def test_extend_merges(self):
        series = self._series()
        other = self._series()
        series.extend(other)
        assert len(series) == 6


class TestSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError):
            TelemetrySampler(machine_for(1), interval=0)

    def test_boundary_crossing_yields_one_row_per_device(self):
        machine = machine_for(1)
        sampler = TelemetrySampler(machine, interval=1000)
        sampler.maybe_sample(500.0)
        assert len(sampler.series) == 0
        sampler.maybe_sample(1000.0)
        assert sampler.series.devices() == sorted(machine.channels())
        rows = len(sampler.series)
        # A jump across many boundaries still records one row per device.
        sampler.maybe_sample(7600.0)
        assert len(sampler.series) == 2 * rows
        assert sampler.series.rows[-1].ts == 2000.0
        # The next boundary advanced past the jump.
        sampler.maybe_sample(7900.0)
        assert len(sampler.series) == 2 * rows

    def test_deltas_are_per_interval(self):
        machine = machine_for(1)
        heap = PmHeap(machine)
        core = machine.new_core()
        sampler = TelemetrySampler(machine, interval=1_000_000)
        addr = heap.pm.alloc_xpline()
        core.nt_store(addr, 64)
        core.sfence()
        sampler.sample(1_000_000.0)
        first = [r for r in sampler.series.rows if r.device == "pm0"][-1]
        assert first.get("imc_write_bytes") == 64.0
        # No traffic since the last sample: the next delta is zero.
        sampler.sample(2_000_000.0)
        second = [r for r in sampler.series.rows if r.device == "pm0"][-1]
        assert second.get("imc_write_bytes") == 0.0

    def test_row_cap_counts_dropped(self):
        machine = machine_for(1)
        sampler = TelemetrySampler(machine, interval=100, max_rows=3)
        for ts in (100.0, 200.0, 300.0):
            sampler.sample(ts)
        assert len(sampler.series) == 3
        assert sampler.dropped > 0


class TestDisabledPath:
    def test_machine_freed_by_refcount_not_gc(self):
        """new_core must not close a Machine<->Core reference cycle.

        A strong core list would park every discarded machine on the
        cyclic collector (a measured double-digit slowdown on untraced
        sweeps); weak refs keep refcount-death working.
        """
        import gc
        import weakref

        machine = machine_for(1)
        core = machine.new_core()
        probe = weakref.ref(machine)
        gc.disable()
        try:
            del machine, core
            assert probe() is None, "machine survived refcount death"
        finally:
            gc.enable()

    def test_cores_property_lists_live_cores(self):
        machine = machine_for(1)
        first = machine.new_core("cpu0")
        second = machine.new_core("cpu1")
        assert machine.cores == [first, second]
        del second
        assert machine.cores == [first]


class TestSession:
    def test_inactive_by_default(self):
        assert active_session() is None
        machine = machine_for(1)
        assert machine.trace is None

    def test_machines_built_inside_are_attached(self):
        with session(interval=1000) as sess:
            machine = machine_for(1)
            assert active_session() is sess
            assert machine.trace is not None
            assert machine.trace.sampler is sess.samplers[0]
            assert machine.trace.tracer is sess.tracer
            for channel in machine.channels().values():
                assert channel.trace is machine.trace
                assert channel.device.trace is machine.trace
        assert active_session() is None

    def test_sessions_nest_and_restore(self):
        with session() as outer:
            with session() as inner:
                assert active_session() is inner
            assert active_session() is outer

    def test_each_machine_gets_own_process_label(self):
        with session(interval=1000) as sess:
            machine_for(1)
            machine_for(2)
        assert sess.machines == 2
        assert [s.label for s in sess.samplers] == ["machine0", "machine1"]

    def test_no_interval_means_no_samplers(self):
        with session() as sess:
            machine = machine_for(1)
            assert machine.trace.sampler is None
        assert sess.samplers == []
        assert sess.timeseries().rows == []

    def test_summary_mentions_drops(self):
        with session(max_events=2) as sess:
            for i in range(5):
                sess.tracer.instant("persist", "store", float(i), "cpu0")
        assert "3 events dropped (cap)" in sess.summary()


class TestLoadSourcePayload:
    """Each DIMM read span names where its data came from."""

    def test_sources_match_dimm_counters(self):
        with session() as sess:
            machine = machine_for(1, seed=1, prefetchers=PrefetcherConfig.none())
            # Two lines per XPLine: the second is served by the read buffer.
            run_strided_read(machine, wss=4096, cachelines_per_xpline=2,
                             cycles_over_region=2)
            # An nt-store leaves its line in the write buffer: a streaming
            # load of it hits there, and one of its unwritten sibling
            # completes the entry with one media read.
            core = machine.new_core()
            addr = machine.region_spec("pm").base + (1 << 20)
            core.nt_store(addr)
            core.mfence()
            core.stream_load(addr)
            core.stream_load(addr + 64)
        spans = [event for event in sess.tracer.events if event.category == "cache"
                 and event.name in ("load-miss", "stream-load")]
        sources = Counter(event.args["source"] for event in spans)
        assert set(sources) == {"write-buffer", "write-buffer-fill", "read-buffer", "media"}
        assert sources["write-buffer"] == 1 and sources["write-buffer-fill"] == 1
        counters = machine.pm_counters()
        assert len(spans) * 64 == counters.imc_read_bytes
        assert sources["write-buffer"] + sources["read-buffer"] == counters.read_buffer_hits
        assert sources["write-buffer-fill"] + sources["media"] == counters.read_buffer_misses
        assert sources["write-buffer-fill"] == counters.underfill_reads
        assert (sources["write-buffer-fill"] + sources["media"]) * 256 == counters.media_read_bytes


class TestChromeExport:
    def _traced_run(self):
        with session(interval=500) as sess:
            machine = machine_for(1)
            run_rap_iterations(
                machine, "pm", FlushKind.CLWB, FenceKind.MFENCE,
                distance=0, wss=4096, passes=10,
            )
        return sess

    def test_export_is_valid_and_rich(self, tmp_path):
        sess = self._traced_run()
        path = write_chrome_trace(tmp_path / "trace.json", sess.tracer)
        stats = validate_chrome_trace(path)
        assert stats["events"] > 0
        # The acceptance bar: at least four distinct event categories.
        assert len(stats["categories"]) >= 4
        assert stats["tracks"] >= 2

    def test_timestamps_monotonic_per_track(self):
        sess = self._traced_run()
        trace = to_chrome_trace(sess.tracer)
        last: dict[tuple, float] = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, float("-inf"))
            last[key] = event["ts"]

    def test_metadata_names_every_track(self):
        sess = self._traced_run()
        trace = to_chrome_trace(sess.tracer)
        named = {
            (e["pid"], e["tid"])
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {
            (e["pid"], e["tid"])
            for e in trace["traceEvents"]
            if e["ph"] != "M"
        }
        assert used <= named

    def test_cycles_per_us_scales(self):
        tracer = Tracer()
        tracer.span("media", "read-xpline", 2000.0, 3000.0, "pm0")
        trace = to_chrome_trace(tracer, cycles_per_us=2000.0)
        span = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
        assert span["ts"] == 1.0 and span["dur"] == 0.5

    def test_validate_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})

    def test_validate_rejects_backwards_track(self):
        events = [
            {"ph": "i", "name": "a", "ts": 5.0, "pid": 1, "tid": 1, "s": "t"},
            {"ph": "i", "name": "b", "ts": 3.0, "pid": 1, "tid": 1, "s": "t"},
        ]
        with pytest.raises(ValueError, match="backwards"):
            validate_chrome_trace({"traceEvents": events})

    def test_timeseries_writers(self, tmp_path):
        sess = self._traced_run()
        series = sess.timeseries()
        csv_path = write_timeseries_csv(tmp_path / "ts.csv", series)
        json_path = write_timeseries_json(tmp_path / "ts.json", series)
        assert csv_path.read_text().splitlines()[0].startswith("ts,device")
        rebuilt = TimeSeries.from_obj(json.loads(json_path.read_text()))
        assert len(rebuilt) == len(series)


class TestWpqTimeDomain:
    def test_wpq_occupancy_varies_during_rap(self):
        """The sampler resolves the WPQ fill/drain sawtooth of Fig. 7."""
        with session(interval=500) as sess:
            machine = machine_for(1)
            run_rap_iterations(
                machine, "pm", FlushKind.CLWB, FenceKind.SFENCE,
                distance=0, wss=4096, passes=50,
            )
        occupancy = [v for _, v in
                     sess.timeseries().column("wpq_occupancy", device="pm0")]
        assert len(occupancy) > 10
        assert len(set(occupancy)) >= 2, "WPQ occupancy should not be constant"

    def test_rap_stall_spans_emitted_under_mfence(self):
        with session() as sess:
            machine = machine_for(1)
            run_rap_iterations(
                machine, "pm", FlushKind.CLWB, FenceKind.MFENCE,
                distance=0, wss=4096, passes=5,
            )
        stalls = [e for e in sess.tracer.events if e.name == "rap-stall"]
        assert stalls, "distance-0 mfence RAP must produce rap-stall spans"
        assert all(e.phase == "X" and e.dur > 0 for e in stalls)


def _digest(reports) -> str:
    """Canonical digest of a list of ExperimentReports."""
    payload = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestObservationalPurity:
    """Tracing must never perturb simulation results."""

    def test_fig2_digest_unchanged_by_tracing(self):
        base = _digest(fig02.run(1, "fast"))
        with session(interval=1000):
            traced = _digest(fig02.run(1, "fast"))
        assert traced == base

    def test_fig7_digest_unchanged_by_tracing(self):
        base = _digest([fig07.run_panel(1, "pm", "fast")])
        with session(interval=1000):
            traced = _digest([fig07.run_panel(1, "pm", "fast")])
        assert traced == base

    def test_category_filtering_also_pure(self):
        base = _digest(fig02.run(1, "fast"))
        with session(categories=["imc", "persist"]):
            traced = _digest(fig02.run(1, "fast"))
        assert traced == base
