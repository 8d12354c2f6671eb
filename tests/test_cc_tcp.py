"""Tests for the TCP machinery: slow-start, recovery, timeouts, self-clocking."""

import pytest

from repro.cc import establish, new_tcp_flow, sqrt_rule, tcp_rule
from repro.cc.tcp import TcpSender, TcpSink
from repro.net import CountBasedDropper, Dumbbell, PeriodicDropper
from repro.sim import Simulator
from repro.telemetry import capture

from tests.helpers import CutoffDropper, loopback, series


class TestSlowStart:
    def test_window_doubles_per_rtt_without_loss(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(sim, sender, sink, rtt=0.05, bandwidth_bps=1e9)
        sender.start()
        sim.run(until=0.26)  # ~5 RTTs
        # cwnd starts at 1 and doubles each RTT: expect >= 16 by 5 RTTs.
        assert sender.cwnd >= 16

    def test_transfer_completes_and_reports(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=10)
        loopback(sim, sender, sink)
        done = []
        sender.on_complete = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=5.0)
        assert done and not sender.running
        assert sink.packets_received == 10

    def test_short_transfer_duration_is_a_few_rtts(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=10)
        loopback(sim, sender, sink, rtt=0.05, bandwidth_bps=1e9)
        done = []
        sender.on_complete = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=5.0)
        # 10 packets in slow start: 1+2+4+3 -> about 4 RTTs.
        assert done[0] == pytest.approx(4 * 0.05, rel=0.3)


class TestLossRecovery:
    def test_fast_retransmit_on_periodic_loss(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(sim, sender, sink, dropper=PeriodicDropper(50))
        sender.start()
        sim.run(until=20.0)
        assert sender.fast_retransmits > 0
        # Self-clocked recovery: almost no timeouts with isolated drops.
        assert sender.timeouts <= sender.fast_retransmits / 5

    def test_receiver_delivers_all_data_despite_loss(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=200)
        loopback(sim, sender, sink, dropper=PeriodicDropper(20))
        done = []
        sender.on_complete = lambda s: done.append(sim.now)
        sender.start()
        sim.run(until=60.0)
        assert done
        assert sink.rcv_nxt == 200  # every packet eventually arrived in order

    def test_window_halves_on_loss_event(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, rule=tcp_rule(0.5))
        # Drop exactly one packet, far into the flow.
        loopback(sim, sender, sink, dropper=CountBasedDropper([400, 10**9]))
        sender.start()
        sim.run(until=2.0)
        sim.run(until=20.0)
        assert sender.loss_events >= 1
        assert sender.ssthresh < 1e9

    def test_tcp_b_reduces_less(self):
        results = {}
        for b in (0.5, 0.125):
            sim = Simulator()
            sender, sink = new_tcp_flow(sim, rule=tcp_rule(b))
            with capture() as recorder:  # cwnd is written only for a recorder
                loopback(sim, sender, sink, dropper=PeriodicDropper(100))
            sender.start()
            sim.run(until=30.0)
            trace = series(recorder, "cwnd")
            assert len(trace) > 1000  # about one sample per ACK
            values = [w for _, w in trace[len(trace) // 2 :]]
            results[b] = (min(values), max(values))
        # TCP(1/8) oscillates in a much narrower relative band than TCP(1/2).
        ratio_tcp = results[0.5][0] / results[0.5][1]
        ratio_slow = results[0.125][0] / results[0.125][1]
        assert ratio_slow > ratio_tcp

    def test_timeout_fires_when_all_acks_stop(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        # Drop everything after the first 20 packets.
        loopback(sim, sender, sink, dropper=CutoffDropper(20))
        sender.start()
        sim.run(until=10.0)
        assert sender.timeouts >= 1
        assert sender.cwnd == pytest.approx(1.0, abs=2.0)

    def test_exponential_backoff_grows(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(sim, sender, sink, dropper=CutoffDropper(5))
        sender.start()
        sim.run(until=60.0)
        # With a dead path, repeated timeouts back the timer off; the
        # number of timeouts in 60 s must be far below 60 / MIN_RTO = 300.
        assert 2 <= sender.timeouts <= 20


class TestSelfClocking:
    def test_no_data_sent_without_acks(self):
        """The defining property: transmission stops when ACKs stop."""
        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(sim, sender, sink, dropper=CutoffDropper(50))
        sender.start()
        sim.run(until=2.0)
        sent_at_2 = sender.packets_sent
        sim.run(until=2.0 + 0.5)  # several RTTs, all data now dropped
        # Only timeout-driven retransmissions may trickle out (at most a
        # couple in 0.5 s with exponential backoff).
        assert sender.packets_sent - sent_at_2 <= 3


class TestRttEstimation:
    def test_srtt_converges_to_path_rtt(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=300)
        loopback(sim, sender, sink, rtt=0.08, bandwidth_bps=1e9)
        sender.start()
        sim.run(until=10.0)
        assert sender.srtt == pytest.approx(0.08, rel=0.1)

    def test_rto_respects_minimum(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=500)
        loopback(sim, sender, sink, rtt=0.01, bandwidth_bps=1e9)
        sender.start()
        sim.run(until=2.0)
        assert sender.srtt < TcpSender.MIN_RTO / 4
        assert sender.rto == TcpSender.MIN_RTO


class TestSinkBehaviour:
    def test_cumulative_ack_advances_over_buffered_gap(self):
        sim = Simulator()
        sink = TcpSink(sim)
        acks = []

        class FakeNode:
            address = 2

            def bind_flow(self, fid, handler):
                pass

            def send(self, packet):
                acks.append(packet.ack_seq)

        sink.attach(FakeNode(), 1, 0)
        from repro.net.packet import DATA, Packet

        def data(seq):
            return Packet(0, DATA, seq, 1000, 1, 2, sent_at=sim.now)

        sink.receive(data(0))
        sink.receive(data(2))  # gap at 1
        sink.receive(data(3))
        sink.receive(data(1))  # fills the hole
        assert acks == [1, 1, 1, 4]

    def test_duplicate_data_not_double_delivered(self):
        sim = Simulator()
        sink = TcpSink(sim)
        delivered = []
        sink.on_data.append(lambda p: delivered.append(p.seq))

        class FakeNode:
            address = 2

            def bind_flow(self, fid, handler):
                pass

            def send(self, packet):
                pass

        sink.attach(FakeNode(), 1, 0)
        from repro.net.packet import DATA, Packet

        def data(seq):
            return Packet(0, DATA, seq, 1000, 1, 2, sent_at=sim.now)

        sink.receive(data(0))
        sink.receive(data(0))
        sink.receive(data(2))
        sink.receive(data(2))
        assert delivered == [0, 2]


class TestBinomialOnTcpMachinery:
    def test_sqrt_flow_survives_and_shares(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        s1, k1 = new_tcp_flow(sim, rule=sqrt_rule(0.5))
        f1 = establish(net, s1, k1)
        s2, k2 = new_tcp_flow(sim, rule=tcp_rule(0.5))
        f2 = establish(net, s2, k2)
        net.monitor.record_departures()  # utilization reads them
        s1.start_at(0.0)
        s2.start_at(0.1)
        sim.run(until=60.0)
        th1 = net.accountant.throughput_bps(f1, 20, 60)
        th2 = net.accountant.throughput_bps(f2, 20, 60)
        assert th1 > 0.2e6 and th2 > 0.2e6  # both get a real share
        assert net.monitor.utilization(20, 60) > 0.85


class TestTimeoutRecovery:
    def test_burst_loss_recovers_without_per_hole_timeouts(self):
        """Regression: a timeout amid many holes must go-back-N rather than
        paying one RTO per hole (which froze flows at ~3 packets/s)."""
        from repro.net import BernoulliDropper
        import random

        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        # Heavy random loss creates multi-hole windows routinely.
        loopback(
            sim, sender, sink,
            dropper=BernoulliDropper(0.15, rng=random.Random(5)),
        )
        sender.start()
        sim.run(until=60.0)
        # Sustained progress: with go-back-N the flow delivers far more
        # than the one-packet-per-RTO floor (~5/s) would allow.
        assert sink.rcv_nxt > 60 * 20

    def test_snd_nxt_never_below_snd_una(self):
        from repro.net import BernoulliDropper
        import random

        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(
            sim, sender, sink,
            dropper=BernoulliDropper(0.2, rng=random.Random(9)),
        )
        sender.start()
        for _ in range(30):
            sim.run(until=sim.now + 1.0)
            assert sender.snd_nxt >= sender.snd_una

    def test_no_duplicate_window_reduction_after_timeout(self):
        """The recover guard: go-back-N duplicates must not re-trigger fast
        retransmit for the same loss window."""
        from repro.net import BernoulliDropper
        import random

        sim = Simulator()
        sender, sink = new_tcp_flow(sim)
        loopback(
            sim, sender, sink,
            dropper=BernoulliDropper(0.1, rng=random.Random(2)),
        )
        sender.start()
        sim.run(until=60.0)
        # Rough sanity: loss events stay within the same order as actual
        # loss (10% of ~sent packets), not inflated by spurious reductions.
        assert sender.loss_events < 0.2 * sender.packets_sent
