"""Unit tests for links, nodes and the link monitor."""

import pytest

from repro.net import DropTailQueue, Link, LinkMonitor, Node, Packet
from repro.net.packet import DATA
from repro.sim import Simulator
from repro.telemetry import SeriesProbe


def make_packet(seq=0, size=1000, flow=0, src=0, dst=1, kind=DATA):
    return Packet(flow_id=flow, kind=kind, seq=seq, size=size, src=src, dst=dst)


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8000.0, delay_s=1.0)
        arrived = []
        link.connect(lambda p: arrived.append(sim.now))
        # 1000 bytes at 8000 bps = 1 s serialization, + 1 s propagation.
        link.send(make_packet(size=1000))
        sim.run()
        assert arrived == [2.0]

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=8000.0, delay_s=0.5)
        arrived = []
        link.connect(lambda p: arrived.append((sim.now, p.seq)))
        link.send(make_packet(seq=1))
        link.send(make_packet(seq=2))
        sim.run()
        assert arrived == [(1.5, 1), (2.5, 2)]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0, DropTailQueue(2))
        arrived = []
        link.connect(lambda p: arrived.append(p.seq))
        for seq in range(5):
            link.send(make_packet(seq=seq))
        sim.run()
        # One in service + two queued at the time of the burst.
        assert len(arrived) == 3

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0)
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    def test_counts_bytes_and_packets(self):
        sim = Simulator()
        link = Link(sim, 1e6, 0.0)
        link.connect(lambda p: None)
        departures = SeriesProbe()
        link.record_departures(departures)
        link.send(make_packet(size=500))
        link.send(make_packet(size=700))
        sim.run()
        assert list(departures.values) == [500.0, 1200.0]
        assert link.packets_sent == 2

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, 0.0, 0.1)
        with pytest.raises(ValueError):
            Link(sim, 1e6, -1.0)


class TestNode:
    def build_pair(self):
        sim = Simulator()
        a = Node(sim, address=1, name="a")
        b = Node(sim, address=2, name="b")
        ab = Link(sim, 1e6, 0.001)
        ab.connect(b.receive)
        a.add_route(2, ab)
        return sim, a, b

    def test_delivery_to_bound_flow(self):
        sim, a, b = self.build_pair()
        got = []
        b.bind_flow(7, got.append)
        a.send(make_packet(flow=7, src=1, dst=2))
        sim.run()
        assert len(got) == 1

    def test_unbound_flow_discarded_silently(self):
        sim, a, b = self.build_pair()
        a.send(make_packet(flow=9, src=1, dst=2))
        sim.run()  # no error

    def test_forwarding_through_router(self):
        sim = Simulator()
        src = Node(sim, 1)
        router = Node(sim, 2)
        dst = Node(sim, 3)
        l1 = Link(sim, 1e6, 0.001)
        l1.connect(router.receive)
        l2 = Link(sim, 1e6, 0.001)
        l2.connect(dst.receive)
        src.set_default_route(l1)
        router.add_route(3, l2)
        got = []
        dst.bind_flow(0, got.append)
        src.send(make_packet(flow=0, src=1, dst=3))
        sim.run()
        assert len(got) == 1

    def test_no_route_raises(self):
        sim = Simulator()
        node = Node(sim, 1)
        with pytest.raises(RuntimeError):
            node.send(make_packet(src=1, dst=99))

    def test_double_bind_rejected(self):
        sim = Simulator()
        node = Node(sim, 1)
        node.bind_flow(3, lambda p: None)
        with pytest.raises(ValueError):
            node.bind_flow(3, lambda p: None)

    def test_unbind_then_rebind(self):
        sim = Simulator()
        node = Node(sim, 1)
        node.bind_flow(3, lambda p: None)
        node.unbind_flow(3)
        node.bind_flow(3, lambda p: None)


class TestLinkMonitor:
    def test_counts_arrivals_drops_departures(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0, DropTailQueue(2))
        monitor = LinkMonitor(sim)
        monitor.attach(link)
        monitor.record_departures()
        link.connect(lambda p: None)
        for seq in range(5):
            link.send(make_packet(seq=seq))
        sim.run()
        assert monitor.arrivals_in(0.0, 10.0) == 5
        assert monitor.drops_in(0.0, 10.0) == 2
        assert monitor.departed_bytes_in(0.0, 10.0) == 3000

    def test_loss_rate(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0, DropTailQueue(2))
        monitor = LinkMonitor(sim)
        monitor.attach(link)
        link.connect(lambda p: None)
        for seq in range(5):
            link.send(make_packet(seq=seq))
        sim.run()
        assert monitor.loss_rate(0.0, 10.0) == pytest.approx(0.4)

    def test_loss_rate_nan_when_idle(self):
        import math

        sim = Simulator()
        link = Link(sim, 8000.0, 0.0)
        monitor = LinkMonitor(sim)
        monitor.attach(link)
        assert math.isnan(monitor.loss_rate(0.0, 1.0))

    def test_utilization_full_link(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0)
        monitor = LinkMonitor(sim)
        monitor.attach(link)
        monitor.record_departures()
        link.connect(lambda p: None)
        # 4 packets x 1000 B at 8 kbps = 4 s of transmission.
        for seq in range(4):
            link.send(make_packet(seq=seq))
        sim.run()
        assert monitor.utilization(0.0, 4.0) == pytest.approx(1.0)
        assert monitor.utilization(0.0, 8.0) == pytest.approx(0.5)
