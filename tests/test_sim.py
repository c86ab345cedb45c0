"""Tests for the discrete-event core: ports and inflight persists."""

import pytest

from repro.common.errors import ConfigError
from repro.sim.inflight import InflightPersists
from repro.sim.ports import ServicePorts


class TestServicePorts:
    def test_single_port_serializes(self):
        ports = ServicePorts(1)
        first = ports.acquire(0, 100)
        second = ports.acquire(0, 100)
        assert first.finish == 100
        assert second.start == 100
        assert second.finish == 200

    def test_two_ports_parallel(self):
        ports = ServicePorts(2)
        first = ports.acquire(0, 100)
        second = ports.acquire(0, 100)
        assert first.finish == 100
        assert second.finish == 100

    def test_request_after_idle_starts_immediately(self):
        ports = ServicePorts(1)
        ports.acquire(0, 10)
        grant = ports.acquire(500, 10)
        assert grant.start == 500

    def test_earliest_start(self):
        busy = ServicePorts(1)
        busy.acquire(0, 100)
        assert busy.acquire(0, 10).start == 100
        idle = ServicePorts(1)
        idle.acquire(0, 100)
        assert idle.acquire(300, 10).start == 300

    def test_ties_go_to_lowest_index(self):
        # All idle at 0, then every port equally busy: each round of
        # grants walks the ports from index 0 upwards.  Which of several
        # equally free ports is taken does not show in the grant times,
        # so the busy-until list is checked directly.
        ports = ServicePorts(3)
        expected = [
            # (service, start, finish, busy-until after the grant)
            (100, 0, 100, [100, 0, 0]),
            (100, 0, 100, [100, 100, 0]),
            (100, 0, 100, [100, 100, 100]),
            (50, 100, 150, [150, 100, 100]),
            (70, 100, 170, [150, 170, 100]),
            (10, 100, 110, [150, 170, 110]),
            (5, 110, 115, [150, 170, 115]),
        ]
        for service, start, finish, busy in expected:
            grant = ports.acquire(0, service)
            assert (grant.start, grant.finish) == (start, finish)
            assert ports._busy_until == busy

    def test_earliest_free_port_even_when_all_are_free(self):
        # The pick is the port that freed earliest, not the lowest index
        # among ports already free at ``now``.
        ports = ServicePorts(3)
        for service in (30, 10, 20):
            ports.acquire(0, service)
        grant = ports.acquire(500, 1)
        assert (grant.start, grant.finish) == (500, 501)
        assert ports._busy_until == [30, 501, 20]

    def test_rejects_zero_ports(self):
        with pytest.raises(ConfigError):
            ServicePorts(0)

    def test_rejects_negative_service(self):
        with pytest.raises(ConfigError):
            ServicePorts(1).acquire(0, -5)

    def test_utilization(self):
        # One request busies one of two ports: a second one arriving
        # during its service still starts at once.
        ports = ServicePorts(2)
        first = ports.acquire(0, 100)
        second = ports.acquire(50, 100)
        assert (first.start, first.finish) == (0, 100)
        assert (second.start, second.finish) == (50, 150)

    def test_queue_statistics(self):
        # Two requests arriving together on one port: the second queues
        # for the first's whole service time.
        ports = ServicePorts(1)
        first = ports.acquire(0, 100)
        second = ports.acquire(0, 100)
        assert first.start == 0
        assert second.start == 100  # queued 100 cycles
        assert second.finish == 200

    def test_reset(self):
        ports = ServicePorts(1)
        ports.acquire(0, 100)
        ports.reset()
        assert ports.acquire(0, 10).start == 0

    def test_picks_earliest_free_port(self):
        ports = ServicePorts(2)
        ports.acquire(0, 100)
        ports.acquire(0, 50)
        third = ports.acquire(0, 10)
        assert third.start == 50


class TestInflightPersists:
    def test_absent_line_returns_none(self):
        assert InflightPersists().completion_for(5, 0) is None

    def test_pending_persist_visible(self):
        inflight = InflightPersists()
        inflight.add(5, 100)
        assert inflight.completion_for(5, 50) == 100

    def test_completed_persist_pruned(self):
        inflight = InflightPersists()
        inflight.add(5, 100)
        assert inflight.completion_for(5, 150) is None
        assert len(inflight) == 0

    def test_newer_later_persist_supersedes(self):
        inflight = InflightPersists()
        inflight.add(5, 100)
        inflight.add(5, 300)
        assert inflight.completion_for(5, 50) == 300

    def test_earlier_completion_does_not_regress(self):
        inflight = InflightPersists()
        inflight.add(5, 300)
        inflight.add(5, 100)
        assert inflight.completion_for(5, 50) == 300

    def test_clear(self):
        inflight = InflightPersists()
        inflight.add(1, 100)
        inflight.clear()
        assert inflight.completion_for(1, 0) is None
