"""Unit tests for the AIMD parameter relation and binomial window rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cc import (
    AimdRule,
    BinomialRule,
    binomial_compatible_a,
    iiad_rule,
    sqrt_rule,
    tcp_compatible_a,
    tcp_rule,
)


class TestParameterRelations:
    def test_standard_tcp_has_a_equal_1(self):
        assert tcp_compatible_a(0.5) == pytest.approx(1.0)

    def test_paper_formula(self):
        # a = 4(2b - b^2)/3 for b = 1/8.
        b = 0.125
        assert tcp_compatible_a(b) == pytest.approx(4 * (2 * b - b * b) / 3)

    def test_smaller_b_means_smaller_a(self):
        assert tcp_compatible_a(0.125) < tcp_compatible_a(0.5)

    @given(st.floats(0.01, 0.99))
    def test_relations_positive_and_bounded(self, b):
        assert 0 < tcp_compatible_a(b) < 2.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tcp_compatible_a(0.0)
        with pytest.raises(ValueError):
            tcp_compatible_a(1.0)


class TestAimdRule:
    def test_increase_is_a_per_rtt(self):
        rule = AimdRule(a=1.0, b=0.5)
        w = 10.0
        # Per-ACK increment times window = per-RTT increment.
        assert rule.increase_per_ack(w) * w == pytest.approx(1.0)

    def test_decrease_is_multiplicative(self):
        rule = AimdRule(a=1.0, b=0.5)
        assert rule.decrease(10.0) == pytest.approx(5.0)
        rule8 = tcp_rule(0.125)
        assert rule8.decrease(16.0) == pytest.approx(14.0)

    def test_decrease_floors_at_one(self):
        rule = AimdRule(a=1.0, b=0.9)
        assert rule.decrease(1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AimdRule(a=1.0, b=1.0)


class TestBinomialRules:
    def test_sqrt_rule_updates(self):
        rule = sqrt_rule(0.5)
        w = 16.0
        # Decrease: w - b * sqrt(w) = 16 - 0.5*4 = 14.
        assert rule.decrease(w) == pytest.approx(14.0)
        # Increase per RTT: a / sqrt(w); per ACK divides by w again.
        assert rule.increase_per_ack(w) * w == pytest.approx(rule.a / 4.0)

    def test_iiad_rule_updates(self):
        rule = iiad_rule(1.0)
        w = 10.0
        assert rule.decrease(w) == pytest.approx(9.0)  # additive decrease
        assert rule.increase_per_ack(w) * w == pytest.approx(rule.a / 10.0)

    def test_compatible_a_requires_k_plus_l_1(self):
        with pytest.raises(ValueError):
            binomial_compatible_a(1.0, 0.5, 0.5)
        assert binomial_compatible_a(0.5, 0.5, 0.5) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialRule(k=-1.0, l=0.5, a=1.0, b=0.5)
        with pytest.raises(ValueError):
            BinomialRule(k=0.5, l=1.5, a=1.0, b=0.5)
        with pytest.raises(ValueError):
            BinomialRule(k=0.5, l=0.5, a=0.0, b=0.5)

    @given(
        st.floats(1.1, 1000.0),
        st.sampled_from(["tcp", "sqrt", "iiad"]),
    )
    def test_decrease_never_below_one_nor_above_w(self, w, kind):
        rule = {"tcp": tcp_rule(0.5), "sqrt": sqrt_rule(0.5), "iiad": iiad_rule()}[kind]
        new_w = rule.decrease(w)
        assert 1.0 <= new_w < w

    @given(st.floats(1.0, 1000.0))
    def test_increase_is_positive_and_diminishing(self, w):
        rule = sqrt_rule(0.5)
        assert rule.increase_per_ack(w) > 0
        assert rule.increase_per_ack(w * 2) < rule.increase_per_ack(w)
