"""Unit tests for the TCP response functions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cc import (
    aimd_response_rate,
    aimd_with_timeouts_rate,
    padhye_rate_per_rtt,
    padhye_rate_pps,
    simple_response_rate,
)


class TestSimpleResponse:
    def test_reference_value(self):
        # p = 1.5% -> sqrt(100) = 10 packets/RTT.
        assert simple_response_rate(0.015) == pytest.approx(10.0)

    def test_scales_as_inverse_sqrt(self):
        assert simple_response_rate(0.01) / simple_response_rate(0.04) == pytest.approx(2.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            simple_response_rate(0.0)
        with pytest.raises(ValueError):
            simple_response_rate(1.5)

    @given(st.floats(1e-6, 1.0))
    def test_inversion_roundtrip(self, p):
        # The model is rate = sqrt(1.5 / p): it inverts to p = 1.5 / rate^2.
        assert 1.5 / simple_response_rate(p) ** 2 == pytest.approx(p)


class TestAimdResponse:
    def test_tcp_parameters_recover_simple_model(self):
        for p in (0.001, 0.01, 0.1):
            assert aimd_response_rate(p, a=1.0, b=0.5) == pytest.approx(
                simple_response_rate(p)
            )

    def test_gentler_decrease_with_matched_a_is_tcp_compatible(self):
        # With the deterministic relation a = 3b/(2-b), any b matches TCP.
        for b in (0.125, 0.25, 0.5):
            assert aimd_response_rate(0.01, 3 * b / (2 - b), b) == pytest.approx(
                simple_response_rate(0.01)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            aimd_response_rate(0.01, a=0.0, b=0.5)
        with pytest.raises(ValueError):
            aimd_response_rate(0.01, a=1.0, b=1.0)
        with pytest.raises(ValueError):
            aimd_response_rate(0.0, a=1.0, b=0.5)


class TestPadhye:
    def test_matches_simple_model_at_low_loss(self):
        # Without timeouts dominating, Padhye ~ sqrt(3/(2p))/RTT.
        p = 1e-4
        rate = padhye_rate_pps(p, 0.1) * 0.1
        assert rate == pytest.approx(math.sqrt(1.5 / p), rel=0.05)

    def test_rtt_cancels_out_per_rtt(self):
        # With the default RTO of four RTTs, packets per RTT ignore the RTT.
        for rtt in (0.01, 0.1, 3.0):
            assert padhye_rate_pps(0.05, rtt) * rtt == pytest.approx(padhye_rate_per_rtt(0.05))

    def test_timeouts_reduce_rate_at_high_loss(self):
        p = 0.2
        assert padhye_rate_per_rtt(p) < simple_response_rate(p)

    def test_monotone_decreasing_in_p(self):
        rates = [padhye_rate_pps(p, 0.05) for p in (0.001, 0.01, 0.05, 0.2, 0.5)]
        assert rates == sorted(rates, reverse=True)

    def test_zero_loss_is_unbounded(self):
        assert padhye_rate_pps(0.0, 0.05) == math.inf

    def test_rtt_scaling(self):
        # Packets per second halve when the RTT doubles (low-loss regime).
        fast = padhye_rate_pps(1e-4, 0.05)
        slow = padhye_rate_pps(1e-4, 0.10)
        assert fast / slow == pytest.approx(2.0, rel=0.05)

    def test_default_rto_is_4_rtt(self):
        explicit = padhye_rate_pps(0.1, 0.05, rto_s=0.2)
        default = padhye_rate_pps(0.1, 0.05)
        assert explicit == default

    def test_validation(self):
        with pytest.raises(ValueError):
            padhye_rate_pps(-0.1, 0.05)
        with pytest.raises(ValueError):
            padhye_rate_pps(0.1, 0.0)


class TestAimdWithTimeouts:
    def test_appendix_a_worked_example(self):
        # p = 1/2: two packets every three RTTs -> 2/3 packets/RTT.
        assert aimd_with_timeouts_rate(0.5) == pytest.approx(2.0 / 3.0)

    def test_rate_below_one_packet_per_rtt_at_high_loss(self):
        assert aimd_with_timeouts_rate(0.6) < 1.0

    def test_monotone_decreasing(self):
        rates = [aimd_with_timeouts_rate(p) for p in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert rates == sorted(rates, reverse=True)

    def test_upper_bounds_reno(self):
        # Appendix A: "AIMD with timeouts" upper-bounds Reno at high loss.
        for p in (0.5, 0.6, 0.7, 0.8):
            assert aimd_with_timeouts_rate(p) >= padhye_rate_per_rtt(p)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            aimd_with_timeouts_rate(0.0)
        with pytest.raises(ValueError):
            aimd_with_timeouts_rate(1.0)

    def test_underflows_to_zero_near_certain_loss(self):
        # p -> 1 means ~1/(1-p) exponential timer doublings: 2**(1/(1-p))
        # overflows a float long before p reaches 1.  The documented
        # behavior is a hard zero, not an OverflowError.
        assert aimd_with_timeouts_rate(1.0 - 1e-4) == 0.0
        assert aimd_with_timeouts_rate(1.0 - 1e-12) == 0.0
        # Just below the overflow knee the rate is tiny but positive.
        assert 0.0 < aimd_with_timeouts_rate(0.99) < 1e-2
