"""Unit tests for the named protocol factories and the Protocol value."""

import json
import pickle

import pytest

from repro.cc.rap import RapSender
from repro.cc.tcp import TcpSender
from repro.cc.tear import TearSender
from repro.cc.tfrc import TfrcSender
from repro.experiments.protocols import (
    Protocol,
    iiad,
    rap,
    sqrt,
    tcp,
    tcp_b,
    tear,
    tfrc,
)
from repro.sim import Simulator


class TestFactories:
    def test_tcp_gamma_naming_and_rule(self):
        protocol = tcp(8)
        assert protocol.name == "TCP(0.125)"
        sender, receiver = protocol.make(Simulator())
        assert isinstance(sender, TcpSender)
        assert sender.rule.b == pytest.approx(0.125)

    def test_tcp_b_standard(self):
        protocol = tcp_b(0.5)
        sender, _ = protocol.make(Simulator())
        assert sender.rule.a == pytest.approx(1.0)

    def test_sqrt_rule_exponents(self):
        sender, _ = sqrt(4).make(Simulator())
        assert sender.rule.k == 0.5 and sender.rule.l == 0.5
        assert sender.rule.b == pytest.approx(0.25)

    def test_iiad_rule_exponents(self):
        sender, _ = iiad().make(Simulator())
        assert sender.rule.k == 1.0 and sender.rule.l == 0.0

    def test_rap_parameters(self):
        protocol = rap(16)
        sender, _ = protocol.make(Simulator())
        assert isinstance(sender, RapSender)
        assert sender.b == pytest.approx(1 / 16)

    def test_tfrc_parameters(self):
        protocol = tfrc(32, conservative=True)
        sender, receiver = protocol.make(Simulator())
        assert isinstance(sender, TfrcSender)
        assert sender.conservative
        assert receiver.history.n == 32
        assert protocol.name == "TFRC(32)+SC"

    def test_tear_factory(self):
        sender, receiver = tear().make(Simulator())
        assert isinstance(sender, TearSender)
        assert receiver.epochs == 8

    def test_each_make_call_is_fresh(self):
        protocol = tcp(2)
        sim = Simulator()
        s1, _ = protocol.make(sim)
        s2, _ = protocol.make(sim)
        assert s1 is not s2

    def test_str_is_name(self):
        assert str(tcp(2)) == "TCP(0.5)"


class TestProtocolValue:
    def test_equal_configurations_are_equal_and_hash_equal(self):
        assert tfrc(6, conservative=True) == tfrc(6, conservative=True)
        assert hash(tfrc(6, conservative=True)) == hash(tfrc(6, conservative=True))
        assert tfrc(6) != tfrc(6, conservative=True)
        assert tcp(8) == tcp_b(0.125)
        assert len({tcp(2), tcp(2), tcp(8)}) == 2

    def test_round_trips_through_pickle(self):
        protocol = tfrc(256, conservative=True, conservative_c=1.5)
        clone = pickle.loads(pickle.dumps(protocol))
        assert clone == protocol
        assert clone.name == "TFRC(256)+SC"

    def test_holds_two_plain_fields_and_no_callable(self):
        protocol = rap(4, conservative=True)
        assert vars(protocol) == {
            "family": "rap",
            "params": (("conservative", True), ("gamma", 4.0), ("packet_size", 1000)),
        }

    def test_unknown_family_names_the_valid_ones(self):
        with pytest.raises(KeyError, match="available: iiad, rap, sqrt, tcp_b, tear, tfrc"):
            Protocol.of("quic")

    def test_unknown_parameter_names_the_valid_ones(self):
        with pytest.raises(TypeError) as excinfo:
            tfrc(6, conservativ_c=1.5)
        message = excinfo.value.args[0]
        assert "conservativ_c" in message
        assert "conservative_c" in message and "oscillation_prevention" in message
        # ``n_intervals`` is spelled ``k`` here; the flow's own name is not valid.
        with pytest.raises(TypeError, match="valid parameters"):
            Protocol.of("tfrc", n_intervals=6)
        with pytest.raises(TypeError, match="needs 'gamma'"):
            Protocol.of("rap", packet_size=1000)

    def test_extra_parameters_reach_the_sender(self):
        sim = Simulator()
        assert tfrc(256, conservative=True, conservative_c=1.5).make(sim)[0].conservative_c == 1.5
        assert rap(256, conservative=True).make(sim)[0].conservative
        assert tfrc(6, oscillation_prevention=True).make(sim)[0].oscillation_prevention
        sender, _ = tcp(2, ecn=True, limited_transmit=True).make(sim)
        assert sender.ecn and sender.limited_transmit

    def test_a_parameter_enters_describe_only_when_passed(self):
        # bench/workloads.py::_protocols — these texts are inside every
        # content hash, cache key and trace header.
        described = {
            protocol.name: json.dumps(protocol.describe(), sort_keys=True)
            for protocol in (
                tcp(), tcp_b(1 / 8), tfrc(6), tfrc(6, conservative=True),
                rap(), sqrt(), iiad(), tear(),
            )
        }
        tfrc_params = '"history_discounting": true, "k": 6, "packet_size": 1000}}'
        assert described == {
            "TCP(0.5)": '{"__protocol__": "tcp_b", "params": {"b": 0.5, "packet_size": 1000}}',
            "TCP(0.125)": '{"__protocol__": "tcp_b", "params": {"b": 0.125, "packet_size": 1000}}',
            "TFRC(6)": '{"__protocol__": "tfrc", "params": {"conservative": false, ' + tfrc_params,
            "TFRC(6)+SC": '{"__protocol__": "tfrc", "params": {"conservative": true, ' + tfrc_params,
            "RAP(0.5)": '{"__protocol__": "rap", "params": {"gamma": 2.0, "packet_size": 1000}}',
            "SQRT(0.5)": '{"__protocol__": "sqrt", "params": {"gamma": 2.0, "packet_size": 1000}}',
            "IIAD": '{"__protocol__": "iiad", "params": {"b": 1.0, "packet_size": 1000}}',
            "TEAR(8)": '{"__protocol__": "tear", "params": {"epochs": 8, "packet_size": 1000}}',
        }
        assert tfrc(6, conservative_c=1.5).describe()["params"]["conservative_c"] == 1.5
