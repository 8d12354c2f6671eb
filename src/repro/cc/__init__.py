"""Congestion control algorithms: TCP(b), binomial, RAP, TFRC, TEAR.

The naming follows the paper: for a slowness parameter gamma,

* ``TCP(1/gamma)``  — window-based AIMD with decrease factor b = 1/gamma and
  the full TCP machinery (:func:`repro.cc.tcp.new_tcp_flow` with
  ``tcp_rule(1/gamma)``);
* ``SQRT(1/gamma)`` — the TCP-compatible binomial with k = l = 1/2
  (``sqrt_rule(1/gamma)``);
* ``RAP(1/gamma)``  — rate-based AIMD without self-clocking
  (:func:`repro.cc.rap.new_rap_flow` with ``b = 1/gamma``);
* ``TFRC(gamma)``   — equation-based control averaging gamma loss intervals
  (:func:`repro.cc.tfrc.new_tfrc_flow` with ``n_intervals = gamma``).
"""

from repro.cc.aimd import tcp_compatible_a
from repro.cc.base import Receiver, Sender, WindowRule, establish
from repro.cc.binomial import (
    AimdRule,
    BinomialRule,
    binomial_compatible_a,
    iiad_rule,
    sqrt_rule,
    tcp_rule,
)
from repro.cc.equations import (
    aimd_response_rate,
    aimd_with_timeouts_rate,
    padhye_rate_per_rtt,
    padhye_rate_pps,
    simple_response_rate,
)
from repro.cc.rap import RapSender, RapSink, new_rap_flow
from repro.cc.tcp import TcpSender, TcpSink, new_tcp_flow
from repro.cc.tear import TearReceiver, TearSender, new_tear_flow
from repro.cc.tfrc import (
    TfrcReceiver,
    TfrcReport,
    TfrcSender,
    interval_weights,
    new_tfrc_flow,
)

__all__ = [
    "AimdRule",
    "BinomialRule",
    "RapSender",
    "RapSink",
    "Receiver",
    "Sender",
    "TcpSender",
    "TcpSink",
    "TearReceiver",
    "TearSender",
    "TfrcReceiver",
    "TfrcReport",
    "TfrcSender",
    "WindowRule",
    "aimd_response_rate",
    "aimd_with_timeouts_rate",
    "binomial_compatible_a",
    "establish",
    "iiad_rule",
    "interval_weights",
    "new_rap_flow",
    "new_tcp_flow",
    "new_tear_flow",
    "new_tfrc_flow",
    "padhye_rate_per_rtt",
    "padhye_rate_pps",
    "simple_response_rate",
    "sqrt_rule",
    "tcp_compatible_a",
    "tcp_rule",
]
