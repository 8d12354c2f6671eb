"""Tests for the extension experiments and the TimedDropper/SwitchDropper."""

import pytest

from repro.experiments.ext_queue_dynamics import (
    QueueDynamicsConfig,
    measure_queue_dynamics,
)
from repro.experiments.ext_responsiveness import (
    SwitchDropper,
    measure_responsiveness_rtts,
)
from repro.experiments.protocols import tcp, tfrc
from repro.net import Packet, PeriodicDropper, TimedDropper
from repro.net.packet import DATA


def data(seq=0):
    return Packet(0, DATA, seq, 1000, 0, 1)


class TestTimedDropper:
    def test_drops_once_per_interval(self):
        clock = {"t": 0.0}
        dropper = TimedDropper(1.0, clock=lambda: clock["t"])
        dropper.connect(lambda p: None)
        # First packet at t=0 is dropped (next_drop_after starts at 0).
        dropper.receive(data(0))
        assert dropper.drops == 1
        # More packets inside the same interval pass.
        clock["t"] = 0.5
        dropper.receive(data(1))
        assert dropper.drops == 1
        # After the interval elapses, the next packet is dropped.
        clock["t"] = 1.2
        dropper.receive(data(2))
        assert dropper.drops == 2

    def test_start_at_delays_onset(self):
        clock = {"t": 0.0}
        dropper = TimedDropper(1.0, clock=lambda: clock["t"], start_at=5.0)
        dropper.connect(lambda p: None)
        for t in (0.0, 1.0, 4.9):
            clock["t"] = t
            dropper.receive(data())
        assert dropper.drops == 0
        clock["t"] = 5.0
        dropper.receive(data())
        assert dropper.drops == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TimedDropper(0.0, clock=lambda: 0.0)


class TestSwitchDropper:
    def test_delegates_by_time(self):
        clock = {"t": 0.0}
        never = PeriodicDropper(10**9)
        always_interval = TimedDropper(0.0001, clock=lambda: clock["t"])
        dropper = SwitchDropper(
            5.0, before=never, after=always_interval, clock=lambda: clock["t"]
        )
        dropper.connect(lambda p: None)
        dropper.receive(data())
        assert dropper.drops == 0
        clock["t"] = 6.0
        dropper.receive(data())
        assert dropper.drops == 1


class TestResponsivenessMeasurement:
    def test_tcp_halves_quickly(self):
        measured = measure_responsiveness_rtts(tcp(2), 100)
        assert measured is not None
        assert measured <= 10

    def test_tfrc256_slower_than_tcp(self):
        tcp_r = measure_responsiveness_rtts(tcp(2), 150)
        slow_r = measure_responsiveness_rtts(tfrc(256), 150)
        assert tcp_r is not None
        if slow_r is not None:
            assert slow_r > tcp_r * 3


class TestQueueDynamics:
    CFG = QueueDynamicsConfig(
        bandwidth_bps=2e6, n_flows=4, duration_s=25.0, warmup_s=10.0
    )

    def test_red_vs_droptail_occupancy(self):
        red_q, _, _ = measure_queue_dynamics(tcp(2), "red", self.CFG)
        dt_q, _, _ = measure_queue_dynamics(tcp(2), "droptail", self.CFG)
        assert 0 < red_q < dt_q

    def test_unknown_aqm_rejected(self):
        with pytest.raises(ValueError):
            measure_queue_dynamics(tcp(2), "codel", self.CFG)
