"""Discrete-event simulation core: clock, contention, in-flight persists."""

from repro.sim.clock import Clock, Cycles
from repro.sim.inflight import InflightPersists
from repro.sim.ports import ServiceGrant, ServicePorts

__all__ = [
    "Clock",
    "Cycles",
    "InflightPersists",
    "ServiceGrant",
    "ServicePorts",
]
