"""Tests for RAP: rate-based AIMD without self-clocking."""

import pytest

from repro.cc import new_rap_flow
from repro.cc.rap import RapSender
from repro.net import PeriodicDropper
from repro.sim import Simulator
from repro.telemetry import capture

from tests.helpers import CutoffDropper, loopback, series


class TestRateAdaptation:
    def test_additive_increase_without_loss(self):
        sim = Simulator()
        sender, sink = new_rap_flow(sim, b=0.5)
        loopback(sim, sender, sink, rtt=0.05, bandwidth_bps=1e9)
        sender.start()
        sim.run(until=3.0)
        # About 1 RTT rounds per srtt; w grows by ~a per round.
        assert sender.w > 10

    def test_multiplicative_decrease_on_loss(self):
        sim = Simulator()
        sender, sink = new_rap_flow(sim, b=0.5)
        loopback(sim, sender, sink, dropper=PeriodicDropper(40))
        sender.start()
        sim.run(until=30.0)
        assert sender.loss_events > 10
        # AIMD around the drop period: w stays bounded.
        assert sender.w < 100

    def test_slow_variant_decreases_less(self):
        trace = {}
        for b in (0.5, 1 / 64):
            sim = Simulator()
            sender, sink = new_rap_flow(sim, b=b)
            with capture() as recorder:  # the rate series is written only for a recorder
                loopback(sim, sender, sink, dropper=PeriodicDropper(60))
            sender.start()
            sim.run(until=30.0)
            samples = series(recorder, "rate")
            assert len(samples) > 100  # a sample per RTT and per loss event
            rates = [r for _, r in samples[len(samples) // 2 :]]
            trace[b] = min(rates) / max(rates)
        # RAP(1/64) has a much narrower rate band than RAP(1/2).
        assert trace[1 / 64] > trace[0.5]

    def test_rate_samples_are_bits_per_second(self):
        # The unit of TFRC's and TEAR's rate channels: w / srtt packets per
        # second times the packet's bits, at every sample.
        sim = Simulator()
        sender, sink = new_rap_flow(sim, b=0.5, packet_size=500)
        with capture() as recorder:
            loopback(sim, sender, sink, dropper=PeriodicDropper(60))
        expected = []
        record_rate = sender._record_rate

        def expect_then_record():
            expected.append((sim.now, sender.w / sender.srtt * 500 * 8))
            record_rate()

        sender._record_rate = expect_then_record
        sender.start()
        sim.run(until=10.0)
        assert len(expected) > 50
        assert series(recorder, "rate") == expected

    def test_at_most_one_decrease_per_rtt(self):
        sim = Simulator()
        sender, sink = new_rap_flow(sim, b=0.5)
        # Heavy periodic loss: several drops per RTT once rate is up.
        loopback(sim, sender, sink, dropper=PeriodicDropper(4))
        sender.start()
        sim.run(until=10.0)
        elapsed_rtts = 10.0 / sender.srtt
        assert sender.loss_events <= elapsed_rtts + 5

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RapSender(sim, b=0.0)
        with pytest.raises(ValueError):
            RapSender(sim, b=1.0)


class TestNoSelfClocking:
    def test_keeps_sending_when_acks_stop(self):
        """The defining anti-property: RAP transmits on a timer even when
        the path is dead (contrast with TCP's self-clocking test)."""
        sim = Simulator()
        sender, sink = new_rap_flow(sim, b=1 / 256)
        loopback(sim, sender, sink, dropper=CutoffDropper(10_000))
        sender.start()
        sim.run(until=20.0)  # build up rate
        sim.run(until=21.0)  # path is dead by now for sure? ensure cutoff hit
        # Force cutoff: run until cutoff is passed.
        sim.run(until=40.0)
        sent_mid = sender.packets_sent
        sim.run(until=41.0)
        # Still transmitting at a substantial rate despite zero ACKs
        # (stale-packet expiry halves w slowly for b = 1/256).
        assert sender.packets_sent > sent_mid

    def test_rtt_estimate_tracks_path(self):
        sim = Simulator()
        sender, sink = new_rap_flow(sim)
        loopback(sim, sender, sink, rtt=0.08, bandwidth_bps=1e9)
        sender.start()
        sim.run(until=10.0)
        assert sender.srtt == pytest.approx(0.08, rel=0.15)

