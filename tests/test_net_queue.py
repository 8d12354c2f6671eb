"""Unit tests for DropTail and RED queue disciplines, and depth sampling."""

import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cc import establish, new_tcp_flow
from repro.net import (
    DropTailQueue,
    Dumbbell,
    LinkMonitor,
    Packet,
    QueueProbes,
    REDQueue,
    red_for_bdp,
)
from repro.net.packet import DATA
from repro.sim import Simulator
from repro.telemetry import CounterProbe


def make_packet(seq=0, size=1000):
    return Packet(flow_id=0, kind=DATA, seq=seq, size=size, src=0, dst=1)


def observe(queue):
    """Attach arrival/drop counters, the way a LinkMonitor does."""
    probes = QueueProbes(arrivals=CounterProbe(), drops=CounterProbe())
    queue.telemetry = probes
    return probes


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(10)
        first, second = make_packet(1), make_packet(2)
        q.enqueue(first)
        q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second
        assert q.dequeue() is None

    def test_drops_when_full(self):
        q = DropTailQueue(2)
        assert q.enqueue(make_packet())
        assert q.enqueue(make_packet())
        assert not q.enqueue(make_packet())
        assert len(q) == 2

    def test_byte_accounting(self):
        q = DropTailQueue(10)
        q.enqueue(make_packet(size=100))
        q.enqueue(make_packet(size=200))
        assert q.byte_length == 300
        q.dequeue()
        assert q.byte_length == 200

    def test_observer_sees_arrivals_and_drops(self):
        q = DropTailQueue(1)
        obs = observe(q)
        q.enqueue(make_packet())
        q.enqueue(make_packet())
        assert obs.arrivals.count == 2
        assert obs.drops.count == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    @given(st.lists(st.booleans(), max_size=60))
    def test_occupancy_never_exceeds_capacity(self, ops):
        q = DropTailQueue(5)
        for is_enqueue in ops:
            if is_enqueue:
                q.enqueue(make_packet())
            else:
                q.dequeue()
            assert 0 <= len(q) <= 5


class TestRED:
    def make_red(self, **kwargs):
        defaults = dict(
            capacity_pkts=50,
            min_thresh=5,
            max_thresh=15,
            rng=random.Random(1),
        )
        defaults.update(kwargs)
        return REDQueue(**defaults)

    def test_no_drops_below_min_thresh(self):
        q = self.make_red()
        for _ in range(5):
            assert q.enqueue(make_packet())

    def test_always_drops_at_physical_capacity(self):
        q = self.make_red(capacity_pkts=8, min_thresh=2, max_thresh=6)
        for _ in range(30):
            q.enqueue(make_packet())
        assert len(q) <= 8

    def test_sustained_overload_triggers_early_drops(self):
        q = self.make_red()
        dropped = 0
        # Fill without draining: the average climbs past min_thresh.
        for _ in range(200):
            if not q.enqueue(make_packet()):
                dropped += 1
        assert dropped > 0
        assert len(q) < 200

    def test_average_tracks_queue_growth(self):
        q = self.make_red(weight=0.5)
        for _ in range(10):
            q.enqueue(make_packet())
        assert q.avg > 0

    def test_gentle_region_drops_more_than_max_p(self):
        q = self.make_red(gentle=True, weight=1.0)
        # With weight=1 the average equals the instantaneous queue.
        for _ in range(50):
            q.enqueue(make_packet())
        # Average deep in the gentle region: drop probability near 1.
        admitted = sum(q.enqueue(make_packet()) for _ in range(20))
        assert admitted <= 5

    def test_drop_probability_profile(self):
        q = self.make_red(max_p=0.1)
        q.avg = 4.9
        assert q._drop_probability() == 0.0
        q.avg = 10.0
        assert 0 < q._drop_probability() < 0.1
        q.avg = 15.0
        assert q._drop_probability() == pytest.approx(0.1)
        q.avg = 22.5
        assert 0.1 < q._drop_probability() < 1.0
        q.avg = 30.0
        assert q._drop_probability() == 1.0

    def test_non_gentle_drops_everything_above_max_thresh(self):
        q = self.make_red(gentle=False)
        q.avg = 16.0
        assert q._drop_probability() == 1.0

    def test_idle_period_decays_average(self):
        clock = types.SimpleNamespace(now=0.0)
        q = self.make_red(weight=0.25)
        q.bind_clock(clock)
        for _ in range(10):
            q.enqueue(make_packet())
        while q.dequeue() is not None:
            pass
        avg_before = q.avg
        clock.now = 10.0  # long idle: many packet-times pass
        q.enqueue(make_packet())
        assert q.avg < avg_before

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.make_red(min_thresh=10, max_thresh=5)
        with pytest.raises(ValueError):
            self.make_red(max_p=0.0)
        with pytest.raises(ValueError):
            self.make_red(weight=2.0)


class TestRedForBdp:
    def test_paper_proportions(self):
        # 10 Mbps, 50 ms RTT, 1000-byte packets: BDP = 62.5 packets.
        q = red_for_bdp(10e6, 0.050)
        assert q.capacity_pkts == pytest.approx(2.5 * 62.5, rel=0.02)
        assert q.min_thresh == pytest.approx(0.25 * 62.5, rel=0.02)
        assert q.max_thresh == pytest.approx(1.25 * 62.5, rel=0.02)

    def test_tiny_links_get_floored_thresholds(self):
        q = red_for_bdp(64e3, 0.050, packet_size=1000)
        assert q.capacity_pkts >= 4
        assert q.max_thresh > q.min_thresh >= 1.0


class TestCapacityAccountingContract:
    """Pin the N waiting + 1 in service convention (ns-2 style).

    ``capacity_pkts`` bounds *waiting* packets only; the packet being
    serialized is dequeued by the link and exposed as ``in_service``.
    Redefining capacity to include the in-service packet would shrink
    every buffer by one and perturb all figure tables.
    """

    def test_busy_link_holds_capacity_plus_one(self):
        from repro.sim.engine import Simulator
        from repro.net.link import Link

        sim = Simulator()
        link = Link(sim, 8e3, 0.0, DropTailQueue(2))  # 1s per 1000B packet
        delivered = []
        link.connect(delivered.append)
        for seq in range(4):
            link.send(make_packet(seq))
        # One in service + two waiting; the fourth arrival was tail-dropped.
        assert link.in_service is not None and link.in_service.seq == 0
        assert len(link.queue) == 2
        sim.run()
        assert [p.seq for p in delivered] == [0, 1, 2]
        assert link.in_service is None

    def test_in_service_tracks_current_packet(self):
        from repro.sim.engine import Simulator
        from repro.net.link import Link

        sim = Simulator()
        link = Link(sim, 8e3, 0.0, DropTailQueue(5))
        link.connect(lambda p: None)
        assert link.in_service is None
        first, second = make_packet(0), make_packet(1)
        link.send(first)
        link.send(second)
        assert link.in_service is first
        sim.run(until=1.5)  # first finished, second mid-serialization
        assert link.in_service is second
        sim.run()
        assert link.in_service is None


class TestIdleBypass:
    """The idle-link fast path must be invisible to every observer."""

    def _link(self, queue):
        from repro.sim.engine import Simulator
        from repro.net.link import Link

        sim = Simulator()
        link = Link(sim, 8e6, 0.001, queue)
        delivered = []
        link.connect(delivered.append)
        return sim, link, delivered

    def test_bypass_delivers_identically(self):
        sim, link, delivered = self._link(DropTailQueue(10))
        for seq in range(3):
            link.send(make_packet(seq))
        sim.run()
        assert [p.seq for p in delivered] == [0, 1, 2]

    def test_observed_queue_never_bypasses(self):
        # Attached probes must see every arrival, so the fast path is
        # disabled and counts match the packets offered.
        sim, link, delivered = self._link(DropTailQueue(10))
        obs = observe(link.queue)
        for seq in range(3):
            link.send(make_packet(seq))
        sim.run()
        assert obs.arrivals.count == 3
        assert len(delivered) == 3

    def test_red_opts_out_of_bypass(self):
        q = red_for_bdp(10e6, 0.05)
        assert q.bypass_idle is False
        assert DropTailQueue(1).bypass_idle is True


class TestQueueSampling:
    def test_standing_queue_visible(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        series = net.monitor.sample_queue(0.1)
        sender, sink = new_tcp_flow(sim)
        establish(net, sender, sink)
        sender.start()
        sim.run(until=20.0)
        assert len(series) > 100
        # A long-lived TCP keeps a standing queue at the RED bottleneck.
        tail = series.window(10.0, 20.0)
        assert tail.mean() > 0.5

    def test_requires_attachment(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            LinkMonitor(sim).sample_queue(0.1)
