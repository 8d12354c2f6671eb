"""Integration tests for the dumbbell topology plumbing."""

import pytest

from repro.net import Dumbbell, Packet
from repro.net.packet import ACK, DATA
from repro.net.red import bdp_packets
from repro.sim import Simulator


def build(bandwidth=1e6, rtt=0.05):
    sim = Simulator()
    return sim, Dumbbell(sim, bandwidth_bps=bandwidth, rtt_s=rtt)


class TestTopology:
    def test_forward_pair_crosses_bottleneck(self):
        sim, net = build()
        pair = net.add_host_pair()
        flow = net.new_flow_id()
        got = []
        pair.destination.bind_flow(flow, got.append)
        packet = Packet(flow, DATA, 0, 1000, pair.source.address, pair.destination.address)
        pair.source.send(packet)
        sim.run()
        assert len(got) == 1
        assert net.monitor.arrivals_in(0.0, 1.0) == 1

    def test_one_way_delay_is_half_rtt(self):
        sim, net = build(bandwidth=1e9, rtt=0.05)  # fast link: serialization ~ 0
        pair = net.add_host_pair()
        flow = net.new_flow_id()
        times = []
        pair.destination.bind_flow(flow, lambda p: times.append(sim.now))
        pair.source.send(
            Packet(flow, DATA, 0, 1000, pair.source.address, pair.destination.address)
        )
        sim.run()
        assert times[0] == pytest.approx(0.025, rel=0.01)

    def test_ack_path_returns_to_source(self):
        sim, net = build()
        pair = net.add_host_pair()
        flow = net.new_flow_id()
        got_acks = []
        pair.source.bind_flow(flow, got_acks.append)

        def reflect(packet):
            ack = Packet(
                flow, ACK, packet.seq, 40, pair.destination.address, pair.source.address
            )
            pair.destination.send(ack)

        pair.destination.bind_flow(flow, reflect)
        pair.source.send(
            Packet(flow, DATA, 0, 1000, pair.source.address, pair.destination.address)
        )
        sim.run()
        assert len(got_acks) == 1

    def test_rtt_round_trip_time(self):
        sim, net = build(bandwidth=1e9, rtt=0.05)
        pair = net.add_host_pair()
        flow = net.new_flow_id()
        times = []
        pair.source.bind_flow(flow, lambda p: times.append(sim.now))
        pair.destination.bind_flow(
            flow,
            lambda p: pair.destination.send(
                Packet(flow, ACK, p.seq, 40, pair.destination.address, pair.source.address)
            ),
        )
        pair.source.send(
            Packet(flow, DATA, 0, 1000, pair.source.address, pair.destination.address)
        )
        sim.run()
        # Propagation-only RTT: 50 ms (serialization negligible at 1 Gbps).
        assert times[0] == pytest.approx(0.05, rel=0.02)

    def test_reverse_pair_uses_reverse_bottleneck(self):
        sim, net = build()
        pair = net.add_host_pair(forward=False)
        flow = net.new_flow_id()
        got = []
        pair.destination.bind_flow(flow, got.append)
        pair.source.send(
            Packet(flow, DATA, 0, 1000, pair.source.address, pair.destination.address)
        )
        sim.run()
        assert len(got) == 1
        assert net.reverse_bottleneck.packets_sent == 1
        assert net.monitor.arrivals_in(0.0, 1.0) == 0

    def test_bottleneck_saturation_drops(self):
        sim, net = build(bandwidth=80_000)  # 10 packets/s
        pair = net.add_host_pair()
        flow = net.new_flow_id()
        got = []
        pair.destination.bind_flow(flow, got.append)
        for seq in range(500):
            pair.source.send(
                Packet(flow, DATA, seq, 1000, pair.source.address, pair.destination.address)
            )
        sim.run()
        assert net.monitor.drops_in(0.0, 1e9) > 0
        assert len(got) < 500

    def test_flow_ids_unique(self):
        _, net = build()
        ids = [net.new_flow_id() for _ in range(10)]
        assert len(set(ids)) == 10

    def test_bdp_packets(self):
        _, net = build(bandwidth=10e6, rtt=0.05)
        assert bdp_packets(net.bandwidth_bps, net.rtt_s, net.packet_size) == pytest.approx(62.5)
        assert net.bottleneck.queue.capacity_pkts == 156  # 2.5 x BDP

    @pytest.mark.parametrize(
        "bandwidth, rtt",
        # fast and paper's settings (2.5 x BDP = 78.125, 156.25), a depth that
        # rounds up (25.625), and a BDP below the 4-packet floor.
        [(5e6, 0.05), (10e6, 0.05), (1.64e6, 0.05), (1e5, 0.05)],
    )
    def test_droptail_and_red_bottlenecks_are_equally_deep(self, bandwidth, rtt):
        from repro.experiments.scenarios import build_net

        depths = {
            aqm: build_net(bandwidth, rtt, seed=1, reverse_flows=0, aqm=aqm)[1]
            .bottleneck.queue.capacity_pkts
            for aqm in ("red", "red+ecn", "droptail")
        }
        assert len(set(depths.values())) == 1, depths

    def test_many_pairs_have_distinct_addresses(self):
        _, net = build()
        pairs = [net.add_host_pair() for _ in range(5)]
        addresses = set()
        for pair in pairs:
            addresses.add(pair.source.address)
            addresses.add(pair.destination.address)
        assert len(addresses) == 10

    def test_ecn_marking_with_a_custom_queue_is_refused(self):
        # Marking is a property of the default RED bottleneck; a factory's
        # queue would silently never mark.
        from repro.net import DropTailQueue

        with pytest.raises(ValueError, match="ecn_marking.*queue_factory"):
            Dumbbell(
                Simulator(), 1e6, 0.05, queue_factory=lambda: DropTailQueue(10), ecn_marking=True
            )
