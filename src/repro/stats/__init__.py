"""Measurement machinery: ipmwatch-equivalent counters and time breakdowns."""

from repro.stats.counters import TelemetryCounters, TelemetryDelta, TelemetryRegistry
from repro.stats.latency import TimeBreakdown

__all__ = [
    "TelemetryCounters",
    "TelemetryDelta",
    "TelemetryRegistry",
    "TimeBreakdown",
]
