"""Tests for TEAR: receiver-side TCP window emulation."""

import pytest

from repro.cc import new_tear_flow
from repro.cc.tear import TearReceiver
from repro.net import PeriodicDropper
from repro.sim import Simulator
from repro.telemetry import capture

from tests.helpers import loopback, series


class TestWindowEmulation:
    def test_window_grows_without_loss(self):
        sim = Simulator()
        sender, receiver = new_tear_flow(sim)
        loopback(sim, sender, receiver, rtt=0.05, bandwidth_bps=1e8)
        sender.start()
        # A short horizon is plenty: without loss the emulated window grows
        # per received packet (and an unbounded run floods the event heap).
        sim.run(until=3.0)
        assert receiver.cwnd > 4

    def test_loss_decreases_emulated_window(self):
        sim = Simulator()
        sender, receiver = new_tear_flow(sim)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(50))
        sender.start()
        sim.run(until=30.0)
        assert receiver.ssthresh < 1e9  # a loss event happened

    def test_sender_follows_receiver_rate(self):
        sim = Simulator()
        sender, receiver = new_tear_flow(sim)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(80))
        sender.start()
        sim.run(until=30.0)
        assert sender.rate_bps == pytest.approx(receiver.smoothed_rate_bps(), rel=0.5)

    def test_deeper_smoothing_is_smoother(self):
        band = {}
        for epochs in (1, 16):
            sim = Simulator()
            sender, receiver = new_tear_flow(sim, epochs=epochs)
            with capture() as recorder:  # the rate series is written only for a recorder
                loopback(sim, sender, receiver, dropper=PeriodicDropper(50))
            sender.start()
            sim.run(until=60.0)
            tail = [r for t, r in series(recorder, "rate") if t > 30.0]
            assert len(tail) > 100  # a sample per feedback packet
            band[epochs] = min(tail) / max(tail)
        assert band[16] > band[1]

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TearReceiver(sim, epochs=0)
