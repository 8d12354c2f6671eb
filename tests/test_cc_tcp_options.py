"""Tests for the TCP options: ECN, delayed ACKs, Limited Transmit."""


from repro.cc import establish, new_tcp_flow
from repro.net import Dumbbell, Packet, PeriodicDropper, REDQueue
from repro.net.packet import DATA
from repro.sim import Simulator

from tests.helpers import loopback


class TestEcnQueue:
    def make_red(self, ecn_marking=True):
        import random

        return REDQueue(
            capacity_pkts=50,
            min_thresh=5,
            max_thresh=15,
            rng=random.Random(1),
            ecn_marking=ecn_marking,
        )

    def data(self, ect=True):
        return Packet(0, DATA, 0, 1000, 0, 1, ect=ect)

    class _AlwaysDrop:
        """An rng whose coin always fires, making early drops certain."""

        def random(self) -> float:
            return 0.0

    def test_ect_packet_marked_not_dropped(self):
        # In the probabilistic marking region (min_thresh <= avg <
        # max_thresh), an ECT packet is marked CE and admitted instead of
        # dropped (RFC 3168 §7).
        q = self.make_red()
        q._rng = self._AlwaysDrop()
        q.avg = 14.0  # marking region; weight keeps it there after update
        packet = self.data(ect=True)
        admitted = q.enqueue(packet)
        assert admitted
        assert packet.ce
        assert q.marks == 1

    def test_non_ect_packet_still_dropped(self):
        q = self.make_red()
        q._rng = self._AlwaysDrop()
        q.avg = 14.0  # marking region, but the packet is not ECN-capable
        packet = self.data(ect=False)
        assert not q.enqueue(packet)
        assert not packet.ce

    def test_forced_drop_region_drops_even_ect(self):
        # RFC 3168 §7 / ns-2 RED: marking substitutes for drops only
        # between the thresholds; once the average exceeds max_thresh the
        # queue drops, ECN-capable or not.  (Previously ECT packets were
        # marked here, so a saturated ECN flow could never lose a packet
        # short of physical overflow.)
        q = self.make_red()
        q.avg = 40.0  # beyond 2 * max_thresh: certain drop
        packet = self.data(ect=True)
        assert not q.enqueue(packet)
        assert not packet.ce
        assert q.marks == 0

    def test_gentle_region_drops_ect_too(self):
        q = self.make_red()
        q._rng = self._AlwaysDrop()
        q.avg = 22.0  # gentle ramp: max_thresh < avg < 2 * max_thresh
        packet = self.data(ect=True)
        assert not q.enqueue(packet)
        assert not packet.ce

    def test_saturated_ecn_flow_still_sees_drops(self):
        # Regression: flood an ECN-marking RED queue with ECT packets and
        # never drain it.  The average climbs through the marking region
        # (producing marks) and past max_thresh, where drops must resume
        # even though every packet is ECN-capable.
        q = self.make_red()
        q.weight = 0.5  # track the instantaneous queue quickly
        dropped = 0
        for _ in range(120):
            if not q.enqueue(self.data(ect=True)):
                dropped += 1
        assert q.marks > 0  # marking happened on the way up
        assert dropped > 0  # saturation produced real drops
        # The queue never reached physical capacity, so every drop was a
        # RED decision in the saturated region — not buffer overflow.
        assert len(q) < q.capacity_pkts

    def test_physical_overflow_drops_even_ect(self):
        q = self.make_red()
        for _ in range(200):
            q.enqueue(self.data(ect=True))
        assert len(q) <= q.capacity_pkts
        packet = self.data(ect=True)
        if len(q) >= q.capacity_pkts:
            assert not q.enqueue(packet)

    def test_marking_disabled_by_default(self):
        q = self.make_red(ecn_marking=False)
        q.avg = 16.0
        packet = self.data(ect=True)
        # In the forced-drop region with marking off, the packet drops.
        q.gentle = False
        assert not q.enqueue(packet)
        assert not packet.ce


class TestEcnFlow:
    def run_ecn(self, ecn):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05, ecn_marking=True)
        sender, sink = new_tcp_flow(sim, ecn=ecn)
        flow = establish(net, sender, sink)
        net.monitor.record_departures()  # utilization reads them
        sender.start()
        sim.run(until=40.0)
        return sender, net, flow

    def test_ecn_flow_reacts_to_marks_not_drops(self):
        sender, net, _ = self.run_ecn(ecn=True)
        assert sender.ecn_reactions > 10
        # Control is driven by marks: retransmission events are rare.
        assert sender.fast_retransmits + sender.timeouts < sender.ecn_reactions / 3

    def test_ecn_flow_utilizes_link(self):
        sender, net, flow = self.run_ecn(ecn=True)
        assert net.monitor.utilization(10.0, 40.0) > 0.85

    def test_non_ecn_flow_ignores_marking_queue(self):
        sender, net, _ = self.run_ecn(ecn=False)
        assert sender.ecn_reactions == 0
        assert sender.loss_events > 0  # still congestion-controlled, by drops

    def test_at_most_one_reaction_per_window(self):
        """Reactions are paced: far fewer reactions than marks under heavy
        marking."""
        sender, net, _ = self.run_ecn(ecn=True)
        marks = net.bottleneck.queue.marks
        assert sender.ecn_reactions <= marks


class TestDelayedAcks:
    def test_ack_ratio_roughly_half(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, delayed_acks=True, max_packets=400)
        loopback(sim, sender, sink, rtt=0.05, bandwidth_bps=1e8)
        sender.start()
        sim.run(until=30.0)
        assert sink.packets_received == 400
        assert sink.acks_sent < 0.7 * sink.packets_received

    def test_standalone_timer_acks_last_packet(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, delayed_acks=True, max_packets=1)
        loopback(sim, sender, sink)
        done = []
        sender.on_complete = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=5.0)
        # The single packet is ACKed by the 200 ms delack timer.
        assert done and done[0] < 1.0

    def test_out_of_order_acks_immediately(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, delayed_acks=True)
        loopback(sim, sender, sink, dropper=PeriodicDropper(30))
        sender.start()
        sim.run(until=20.0)
        # Loss recovery still functions with delayed ACKs on.
        assert sender.fast_retransmits > 0
        assert sink.rcv_nxt > 100

    def test_transfer_completes_with_delayed_acks(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, delayed_acks=True, max_packets=200)
        loopback(sim, sender, sink, dropper=PeriodicDropper(40))
        done = []
        sender.on_complete = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=60.0)
        assert done
        assert sink.rcv_nxt == 200


class TestLimitedTransmit:
    def test_new_data_sent_on_early_dupacks(self):
        """With limited transmit, the first two dupacks each release a new
        packet, keeping the ACK clock alive."""
        sent = {}
        for enabled in (False, True):
            sim = Simulator()
            sender, sink = new_tcp_flow(
                sim, limited_transmit=enabled, max_cwnd=4.0
            )
            loopback(sim, sender, sink, dropper=PeriodicDropper(20))
            sender.start()
            sim.run(until=30.0)
            sent[enabled] = (sender.timeouts, sink.rcv_nxt)
        # Limited transmit reduces timeout reliance for tiny windows and
        # never hurts delivered progress.
        assert sent[True][0] <= sent[False][0]
        assert sent[True][1] >= 0.8 * sent[False][1]
