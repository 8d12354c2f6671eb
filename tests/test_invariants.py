"""Property-based and invariant tests across the stack.

These pin down conservation laws the simulator must obey regardless of
workload: packets are never created or duplicated by the network, link
throughput never exceeds capacity, queues respect their bounds, the
congestion-control senders keep their state in legal ranges, and a
rate-paced sender puts on the wire the rate it computed.

Run as ``python -m tests.test_invariants SENDER`` this module prints that
sender's pacing ratio; the pacing controls run it in a fresh interpreter
on a deliberately broken copy of ``repro``.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cc import (
    establish,
    new_rap_flow,
    new_tcp_flow,
    new_tear_flow,
    new_tfrc_flow,
)
from repro.cc.binomial import sqrt_rule, tcp_rule
from repro.net import DropTailQueue, Dumbbell, Link, Packet, PeriodicDropper, QueueProbes
from repro.net.packet import DATA
from repro.sim import Simulator
from repro.telemetry import CounterProbe, SeriesProbe, capture
from repro.traffic import CbrSink, CbrSource

from tests.helpers import CutoffDropper, loopback, series

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestNetworkConservation:
    @given(
        capacity=st.integers(1, 20),
        sends=st.integers(1, 60),
        bandwidth=st.floats(1e4, 1e7),
    )
    @settings(max_examples=30, deadline=None)
    def test_link_conserves_packets(self, capacity, sends, bandwidth):
        """delivered + dropped == offered, always."""
        sim = Simulator()
        link = Link(sim, bandwidth, 0.001, DropTailQueue(capacity))
        delivered = []
        link.connect(delivered.append)
        probes = QueueProbes(arrivals=CounterProbe(), drops=CounterProbe())
        link.queue.telemetry = probes
        departures = SeriesProbe()
        link.record_departures(departures)
        for seq in range(sends):
            link.send(Packet(0, DATA, seq, 1000, 0, 1))
        sim.run()
        assert probes.arrivals.count == sends
        assert len(delivered) + probes.drops.count == sends
        # What departed is what was delivered, one packet's bytes at a time.
        assert list(departures.values) == [1000.0 * n for n in range(1, len(delivered) + 1)]
        # No duplication: each seq at most once.
        seqs = [p.seq for p in delivered]
        assert len(seqs) == len(set(seqs))

    @given(bandwidth=st.floats(5e4, 5e6))
    @settings(max_examples=10, deadline=None)
    def test_throughput_never_exceeds_capacity(self, bandwidth):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=bandwidth, rtt_s=0.05)
        sender, sink = new_tcp_flow(sim)
        flow = establish(net, sender, sink)
        net.monitor.record_departures()  # utilization reads them
        sender.start()
        sim.run(until=20.0)
        throughput = net.accountant.throughput_bps(flow, 5.0, 20.0)
        # One in-flight packet of slack: a packet whose serialization
        # straddles the window start is attributed entirely to the window
        # (delivery/departure timestamps), so a 15s window can observe up
        # to one extra packet's bits beyond steady-state capacity.
        slack_bps = 1000 * 8.0 / 15.0
        assert throughput <= bandwidth * 1.001 + slack_bps
        assert net.monitor.utilization(5.0, 20.0) <= 1.001 + slack_bps / bandwidth

    def test_receiver_sees_every_seq_at_most_once_under_loss(self):
        sim = Simulator()
        sender, sink = new_tcp_flow(sim, max_packets=300)
        loopback(sim, sender, sink, dropper=PeriodicDropper(17))
        seen = []
        sink.on_data.append(lambda p: seen.append(p.seq))
        sender.start()
        sim.run(until=120.0)
        assert len(seen) == len(set(seen))
        assert sorted(seen) == list(range(300))


class TestSenderStateInvariants:
    def run_flow(self, maker, dropper_period, until=30.0):
        sim = Simulator()
        sender, receiver = maker(sim)
        with capture() as recorder:  # the cwnd / rate series are written only for a recorder
            loopback(sim, sender, receiver, dropper=PeriodicDropper(dropper_period))
        sender.start()
        sim.run(until=until)
        return sender, recorder

    @pytest.mark.parametrize("period", [5, 29, 211])
    def test_tcp_window_bounds(self, period):
        sender, recorder = self.run_flow(lambda s: new_tcp_flow(s, tcp_rule(0.5)), period)
        assert sender.cwnd >= 1.0
        samples = series(recorder, "cwnd")
        assert len(samples) > 200  # about one sample per ACK
        for _, w in samples:
            assert w >= 1.0

    @pytest.mark.parametrize("period", [5, 29, 211])
    def test_sqrt_window_bounds(self, period):
        sender, _ = self.run_flow(lambda s: new_tcp_flow(s, sqrt_rule(0.5)), period)
        assert sender.cwnd >= 1.0

    @pytest.mark.parametrize("period", [7, 53])
    def test_rap_rate_bounds(self, period):
        sender, recorder = self.run_flow(lambda s: new_rap_flow(s, b=0.5), period)
        assert sender.w >= 1.0
        assert sender.srtt > 0
        samples = series(recorder, "rate")
        assert len(samples) > 100  # a sample per RTT and per loss event
        for _, rate in samples:
            assert rate > 0

    @pytest.mark.parametrize("period", [7, 53])
    def test_tfrc_rate_bounds(self, period):
        sender, _ = self.run_flow(lambda s: new_tfrc_flow(s, n_intervals=6), period)
        assert sender.rate_bps >= sender._min_rate_bps()
        assert 0.0 <= sender.p <= 1.0

    def test_tcp_sequence_monotone(self):
        sender, _ = self.run_flow(lambda s: new_tcp_flow(s), 19)
        assert 0 <= sender.snd_una <= sender.snd_nxt


class TestConservativeRap:
    def test_conservative_rap_clamps_to_ack_rate(self):
        """After ACKs stop, the conservative variant shuts down fast while
        plain RAP keeps transmitting."""
        from repro.cc.rap import RapSender, RapSink

        sent = {}
        for conservative in (False, True):
            sim = Simulator()
            sender = RapSender(sim, b=1 / 64, conservative=conservative)
            sink = RapSink(sim)
            loopback(sim, sender, sink, dropper=CutoffDropper(3000))
            sender.start()
            sim.run(until=20.0)
            before = sender.packets_sent
            sim.run(until=40.0)
            sent[conservative] = sender.packets_sent - before
        assert sent[True] < sent[False]


#: Sender -> flow factory.  Every rate is in bit/s, so one 1000-byte
#: packet counts for PACKET_BITS of it.  CBR has no rate series: its rate
#: is the constant.
PACED = {
    "tfrc": new_tfrc_flow,
    "tear": new_tear_flow,
    "rap": new_rap_flow,
    "cbr": lambda sim: (CbrSource(sim, 2e6), CbrSink(sim)),
}
PACKET_BITS = 8000.0
PACING_WINDOW = (10.0, 40.0)


def step_integral(samples, start, end):
    """The integral over [start, end) of a series held from each sample
    to the next."""
    total = 0.0
    for (t, value), (t_next, _) in zip(samples, [*samples[1:], (end, 0.0)]):
        lo, hi = max(t, start), min(t_next, end)
        if hi > lo:
            total += value * (hi - lo)
    return total


def pacing_ratio(name):
    """What ``name`` put on the wire over PACING_WINDOW, over the integral
    of its own rate across the same window (1.0 when it sends what it
    computed)."""
    sim = Simulator()
    sender, receiver = PACED[name](sim)
    with capture() as recorder:  # the rate series is written only for a recorder
        loopback(sim, sender, receiver, bandwidth_bps=1e8, dropper=PeriodicDropper(50))
    start, end = PACING_WINDOW
    sent = {}

    def snapshot(t):
        sent[t] = sender.packets_sent

    for t in PACING_WINDOW:
        sim.at(t, snapshot, t)
    sender.start()
    sim.run(until=end)
    if isinstance(sender, CbrSource):
        samples = [(0.0, sender.rate_bps)]
    else:
        samples = series(recorder, "rate")
    return (sent[end] - sent[start]) * PACKET_BITS / step_integral(samples, start, end)


#: The send gap of a bit/s pacer with its bytes -> bits factor dropped.
SEND_GAP = "self._send_timer.schedule(self.packet_size * 8.0 / self.rate_bps)"
DROPPED_FACTOR = "self._send_timer.schedule(self.packet_size / self.rate_bps)"


class TestPacing:
    """A rate-paced sender's packets on the wire over a window equal the
    integral of its own rate over that window.  This is the unit check
    that matters for the paper's slowly-responsive senders: a bits/bytes
    slip in the send gap moves the ratio by 8."""

    @pytest.mark.parametrize("name", sorted(PACED))
    def test_sender_puts_its_rate_on_the_wire(self, name):
        assert pacing_ratio(name) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("name, module", [("tfrc", "cc/tfrc.py"), ("tear", "cc/tear.py")])
    def test_a_dropped_bit_byte_factor_in_the_send_gap_is_caught(
        self, name, module, tmp_path
    ):
        broken = tmp_path / "repro"
        shutil.copytree(
            pathlib.Path(repro.__file__).parent,
            broken,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        path = broken / module
        text = path.read_text(encoding="utf-8")
        assert text.count(SEND_GAP) == 1
        path.write_text(text.replace(SEND_GAP, DROPPED_FACTOR), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "tests.test_invariants", name],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{REPO}"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # Eight times the rate it computed: far outside the 1 % bound.
        assert float(done.stdout) == pytest.approx(8.0, rel=0.01)


if __name__ == "__main__":
    print(pacing_ratio(sys.argv[1]))
