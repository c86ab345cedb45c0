"""Discrete-event simulation core: cycle time, contention, in-flight persists."""

from repro.sim.clock import Cycles
from repro.sim.inflight import InflightPersists
from repro.sim.ports import ServiceGrant, ServicePorts

__all__ = [
    "Cycles",
    "InflightPersists",
    "ServiceGrant",
    "ServicePorts",
]
