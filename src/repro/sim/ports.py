"""Finite service ports — the simulator's contention primitive.

A :class:`ServicePorts` models a resource that can serve at most N
requests concurrently, each taking a fixed service time.  It is how we
express the paper's observation that Optane media has *limited write
concurrency* (writes do not scale beyond a small thread count) while
reads enjoy more parallelism: the 3D-XPoint media gets few write-drain
ports and more read ports, the DRAM device gets many of both.

Requests carry absolute timestamps, so contexts running at different
local times share the resource correctly: a request is assigned to the
earliest-free port and waits if every port is busy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.sim.clock import Cycles


@dataclass(slots=True)
class ServiceGrant:
    """Outcome of one acquisition: when service started and finished."""

    start: Cycles
    finish: Cycles


class ServicePorts:
    """N identical servers with per-request service times.

    A request goes to the earliest-free port: the first index holding
    the minimum of the busy-until list, so among equally free ports the
    lowest index wins.  N is single digits to a few dozen, so the pick
    is two C-level linear scans (``min`` then ``list.index``).
    """

    def __init__(self, ports: int, name: str = "ports") -> None:
        if ports <= 0:
            raise ConfigError(f"{name}: need at least one port, got {ports}")
        self.name = name
        self._busy_until: list[Cycles] = [0.0] * ports

    def acquire(self, now: Cycles, service_time: Cycles) -> ServiceGrant:
        """Reserve the earliest-free port for ``service_time`` cycles.

        Returns the grant with absolute start/finish times.  The caller's
        perceived latency is ``grant.finish - now`` for synchronous
        operations, or just the queueing time for asynchronous ones.
        """
        if service_time < 0:
            raise ConfigError(f"{self.name}: negative service time {service_time}")
        busy = self._busy_until
        index = busy.index(min(busy))
        start = max(now, busy[index])
        finish = start + service_time
        busy[index] = finish
        return ServiceGrant(start, finish)

    def reset(self) -> None:
        """Free all ports."""
        self._busy_until = [0.0] * len(self._busy_until)
