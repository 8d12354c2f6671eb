"""Tests for CBR schedules, flash crowds, and bulk-flow helpers."""

import pytest

from repro.cc import establish, new_tcp_flow
from repro.net import Dumbbell
from repro.sim import Simulator
from repro.telemetry import SeriesProbe
from repro.traffic import (
    CbrSink,
    CbrSource,
    FlashCrowd,
    add_flows,
    on_off_schedule,
    square_wave,
)


def build(bandwidth=1e6, rtt=0.05):
    sim = Simulator()
    return sim, Dumbbell(sim, bandwidth_bps=bandwidth, rtt_s=rtt)


class TestCbrSource:
    def test_constant_rate(self):
        sim, net = build()
        src = CbrSource(sim, rate_bps=400_000)
        sink = CbrSink(sim)
        flow = establish(net, src, sink)
        src.start_at(0.0)
        sim.run(until=10.0)
        measured = net.accountant.throughput_bps(flow, 1.0, 10.0)
        assert measured == pytest.approx(400_000, rel=0.05)

    def test_stop_and_restart(self):
        sim, net = build()
        src = CbrSource(sim, rate_bps=400_000)
        sink = CbrSink(sim)
        flow = establish(net, src, sink)
        on_off_schedule(sim, src, [(0.0, True), (3.0, False), (6.0, True)])
        sim.run(until=9.0)
        on_rate = net.accountant.throughput_bps(flow, 1.0, 3.0)
        off_rate = net.accountant.throughput_bps(flow, 3.5, 5.5)
        resumed = net.accountant.throughput_bps(flow, 6.5, 8.5)
        assert on_rate == pytest.approx(400_000, rel=0.1)
        assert off_rate < 20_000
        assert resumed == pytest.approx(400_000, rel=0.1)

    def test_rate_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CbrSource(sim, rate_bps=0)

    def test_transitions_must_be_ordered(self):
        sim, net = build()
        src = CbrSource(sim, rate_bps=1e5)
        with pytest.raises(ValueError):
            on_off_schedule(sim, src, [(5.0, True), (1.0, False)])


class TestSquareWave:
    def test_alternating_pattern(self):
        sim, net = build()
        src = CbrSource(sim, rate_bps=400_000)
        sink = CbrSink(sim)
        flow = establish(net, src, sink)
        square_wave(sim, src, on_s=1.0, off_s=1.0, until=10.0)
        sim.run(until=10.0)
        on_win = net.accountant.throughput_bps(flow, 0.2, 0.8)
        off_win = net.accountant.throughput_bps(flow, 1.2, 1.8)
        assert on_win > 300_000
        assert off_win < 50_000

    def test_duration_validation(self):
        sim, net = build()
        src = CbrSource(sim, rate_bps=1e5)
        with pytest.raises(ValueError):
            square_wave(sim, src, on_s=0.0, off_s=1.0, until=5.0)


class TestFlashCrowd:
    def test_spawns_and_completes_flows(self):
        sim, net = build(bandwidth=5e6)
        crowd = FlashCrowd(
            sim, net, rate_per_s=50.0, duration_s=1.0, transfer_packets=5, start_time=1.0
        )
        sim.run(until=20.0)
        assert crowd.spawned == pytest.approx(50, abs=25)
        assert crowd.completed == crowd.spawned

    def test_aggregate_throughput_positive_during_crowd(self):
        sim, net = build(bandwidth=5e6)
        crowd = FlashCrowd(
            sim, net, rate_per_s=50.0, duration_s=1.0, transfer_packets=5, start_time=1.0
        )
        sim.run(until=10.0)
        assert crowd.aggregate_throughput_bps(1.0, 3.0) > 0
        assert crowd.aggregate_throughput_bps(0.0, 1.0) == 0.0

    def test_validation(self):
        sim, net = build()
        with pytest.raises(ValueError):
            FlashCrowd(sim, net, rate_per_s=0.0, duration_s=1.0)


class TestAddFlows:
    def test_creates_and_starts_flows(self):
        sim, net = build()

        def factory(s):
            return new_tcp_flow(s)

        flows = add_flows(sim, net, factory, count=3, start_at=0.0, start_jitter_s=0.5)
        sim.run(until=20.0)
        for flow in flows:
            assert net.accountant.throughput_bps(flow.flow_id, 5.0, 20.0) > 0

    def test_reverse_flows_use_reverse_path(self):
        sim, net = build()
        add_flows(
            sim, net, lambda s: new_tcp_flow(s), count=1, forward=False
        )
        forward, reverse = SeriesProbe(), SeriesProbe()
        net.bottleneck.record_departures(forward)
        net.reverse_bottleneck.record_departures(reverse)
        sim.run(until=5.0)
        # Data (1000 B) crosses the reverse bottleneck, ACKs (40 B) the forward one.
        assert net.reverse_bottleneck.packets_sent > 0
        assert reverse.values[-1] > forward.values[-1]

    def test_count_validation(self):
        sim, net = build()
        with pytest.raises(ValueError):
            add_flows(sim, net, lambda s: new_tcp_flow(s), count=0)
