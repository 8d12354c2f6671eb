"""Tests for TFRC: loss history, interval weights, sender rate control."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cc import interval_weights, new_tfrc_flow
from repro.cc.base import INITIAL_RTT
from repro.cc.tfrc import LossHistory, TfrcSender
from repro.net import PeriodicDropper
from repro.sim import Simulator
from repro.telemetry import capture

from tests.helpers import CutoffDropper, loopback, series


class TestIntervalWeights:
    def test_rfc3448_profile_for_8(self):
        assert interval_weights(8) == pytest.approx([1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2])

    def test_single_interval(self):
        weights = interval_weights(1)
        assert len(weights) == 1 and weights[0] > 0

    def test_monotone_non_increasing(self):
        for n in (1, 2, 6, 8, 17, 256):
            weights = interval_weights(n)
            assert all(a >= b for a, b in zip(weights, weights[1:]))
            assert all(w > 0 for w in weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_weights(0)


class TestLossHistory:
    def test_no_history_means_zero_rate(self):
        history = LossHistory(6)
        for _ in range(100):
            history.on_packet()
        assert history.loss_event_rate() == 0.0

    def test_steady_loss_rate_estimation(self):
        history = LossHistory(6, history_discounting=False)
        # One loss every 100 packets, events 1 second apart (rtt 0.05).
        t = 0.0
        for _ in range(20):
            for _ in range(100):
                history.on_packet()
            history.on_loss(t, 0.05)
            t += 1.0
        assert history.loss_event_rate() == pytest.approx(0.01, rel=0.05)

    def test_losses_within_rtt_are_one_event(self):
        history = LossHistory(6)
        for _ in range(50):
            history.on_packet()
        assert history.on_loss(10.0, 0.05) is True
        assert history.on_loss(10.01, 0.05) is False  # same event
        assert history.on_loss(10.04, 0.05) is False
        assert history.on_loss(10.10, 0.05) is True  # new event
        assert history.loss_events == 2  # two loss *events*
        assert len(history.closed) == 1  # one closed interval between them

    def test_open_interval_raises_average_but_never_lowers(self):
        history = LossHistory(4, history_discounting=False)
        t = 0.0
        for _ in range(8):
            for _ in range(100):
                history.on_packet()
            history.on_loss(t, 0.05)
            t += 1.0
        base = history.average_interval()
        # A short open interval must not drag the average down.
        for _ in range(3):
            history.on_packet()
        assert history.average_interval() == pytest.approx(base)
        # A long lossless run raises it.
        for _ in range(1000):
            history.on_packet()
        assert history.average_interval() > base

    def test_history_discounting_accelerates_recovery(self):
        kwargs = dict(n_intervals=6)
        plain = LossHistory(**kwargs, history_discounting=False)
        discounted = LossHistory(**kwargs, history_discounting=True)
        t = 0.0
        for history in (plain, discounted):
            for _ in range(8):
                for _ in range(50):
                    history.on_packet()
                history.on_loss(t, 0.05)
                t += 1.0
            for _ in range(1000):  # long time of plenty
                history.on_packet()
        assert discounted.loss_event_rate() < plain.loss_event_rate()

    def test_window_bounded_by_n(self):
        history = LossHistory(3)
        t = 0.0
        for _ in range(50):
            for _ in range(10):
                history.on_packet()
            history.on_loss(t, 0.01)
            t += 1.0
        assert len(history.closed) == 3

    @given(st.integers(1, 64), st.integers(2, 500))
    def test_rate_matches_uniform_interval(self, n, interval):
        history = LossHistory(n, history_discounting=False)
        t = 0.0
        for _ in range(n + 2):
            for _ in range(interval):
                history.on_packet()
            history.on_loss(t, 0.01)
            t += 1.0
        assert history.loss_event_rate() == pytest.approx(1.0 / interval, rel=0.05)


class TestTfrcFlow:
    def test_slow_start_then_equation_mode(self):
        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim, n_intervals=6)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(100))
        sender.start()
        sim.run(until=30.0)
        assert not sender.slow_start
        assert sender.p > 0
        assert sender.feedback_count > 100

    def test_steady_loss_rate_reported(self):
        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim, n_intervals=6)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(100))
        sender.start()
        sim.run(until=60.0)
        assert sender.p == pytest.approx(0.01, rel=0.3)

    def test_rtt_estimate_converges(self):
        sim = Simulator()
        # Loss-limited: the flow must not saturate the path (queueing
        # would inflate the RTT samples) nor flood the event heap.
        sender, receiver = new_tfrc_flow(sim)
        loopback(
            sim, sender, receiver, dropper=PeriodicDropper(100), rtt=0.06, bandwidth_bps=1e9
        )
        sender.start()
        sim.run(until=8.0)
        assert sender.srtt == pytest.approx(0.06, rel=0.15)

    def test_rate_throttles_to_equation(self):
        from repro.cc import padhye_rate_pps

        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim, n_intervals=8)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(50), rtt=0.05)
        sender.start()
        sim.run(until=60.0)
        expected_bps = padhye_rate_pps(0.02, sender.rtt) * 8000
        assert sender.rate_bps == pytest.approx(expected_bps, rel=0.5)

    def test_no_feedback_halves_rate(self):
        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim)
        loopback(sim, sender, receiver, dropper=CutoffDropper(2000))
        sender.start()
        sim.run(until=10.0)  # grow
        rate_before = sender.rate_bps
        sim.run(until=60.0)  # path is dead; no-feedback timer fires repeatedly
        assert sender.rate_bps < rate_before / 4

    def test_conservative_requires_valid_c(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TfrcSender(sim, conservative=True, conservative_c=0.5)

    def test_smoothness_under_periodic_loss(self):
        """TFRC under periodic loss holds a nearly constant rate."""
        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim, n_intervals=8)
        with capture() as recorder:  # the rate series is written only for a recorder
            loopback(sim, sender, receiver, dropper=PeriodicDropper(100))
        sender.start()
        sim.run(until=80.0)
        tail = [r for t, r in series(recorder, "rate") if t > 40.0]
        assert len(tail) > 100  # a sample per feedback report
        assert max(tail) / min(tail) < 2.0

    def test_conservative_caps_at_receive_rate_after_loss(self):
        """With the conservative option, the send rate right after a loss
        report never exceeds the reported receive rate."""
        sim = Simulator()
        sender, receiver = new_tfrc_flow(sim, n_intervals=6, conservative=True)
        loopback(sim, sender, receiver, dropper=PeriodicDropper(60))
        sender.start()
        sim.run(until=40.0)
        assert not sender.slow_start
        # Sanity: the cap logic ran and the flow is alive at a sane rate.
        assert sender.rate_bps > sender._min_rate_bps()


class TestOscillationPrevention:
    def test_damping_reduces_rate_swings_under_queueing(self):
        """With a shallow self-induced queue, the RFC 3448 4.5 option keeps
        the sending rate steadier than plain TFRC."""
        from repro.net import DropTailQueue, Dumbbell
        from repro.sim import RngRegistry, Simulator
        from repro.cc import establish

        def run(osc):
            sim = Simulator()
            net = Dumbbell(sim, bandwidth_bps=2e6, rtt_s=0.05, rng=RngRegistry(3))
            sender, receiver = new_tfrc_flow(
                sim, n_intervals=6, oscillation_prevention=osc
            )
            with capture() as recorder:  # the rate series is written only for a recorder
                flow_id = establish(net, sender, receiver)
            sender.start()
            sim.run(until=40.0)
            tail = [r for t, r in series(recorder, "rate", flow_id) if t > 15.0]
            assert len(tail) > 100  # a sample per feedback report
            mean = sum(tail) / len(tail)
            var = sum((r - mean) ** 2 for r in tail) / len(tail)
            return (var ** 0.5) / mean

        assert run(True) < run(False)

    def test_off_by_default(self):
        sim = Simulator()
        sender, _ = new_tfrc_flow(sim)
        assert not sender.oscillation_prevention


class TestConstructorValidation:
    """Non-positive timing/size parameters fail fast instead of seeding
    divisions by zero deep inside the rate equation."""

    def test_rejects_non_positive_packet_size(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="packet_size"):
            TfrcSender(sim, packet_size=0)

    def test_valid_parameters_accepted(self):
        sim = Simulator()
        sender = TfrcSender(sim, packet_size=500)
        assert sender.rtt == INITIAL_RTT
