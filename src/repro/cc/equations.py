"""TCP response functions ("TCP-friendly" equations).

Three models appear in the paper:

* the simple square-root model: rate ~ sqrt(1.5 / p) packets per RTT, the
  first-order characterization behind the TCP-compatible paradigm;
* the full Reno model of Padhye et al. (SIGCOMM 1998), with retransmission
  timeouts, which TFRC uses as its control equation and Figure 20 plots as
  "Reno TCP";
* the Appendix A "AIMD with timeouts" model,
  rate = (1/(1-p)) / (2^(1/(1-p)) - 1) packets per RTT,
  which extends the AIMD sawtooth to sending rates below one packet per
  RTT via exponential timer backoff.

All rates here are in packets per RTT unless the function name says
otherwise; converting to packets or bits per second is the caller's job.
"""

from __future__ import annotations

import math
import sys

from repro.contracts import (
    NonNegPps,
    NonNegRatio,
    PositiveRatio,
    PositiveSeconds,
    Probability,
    checked,
)

__all__ = [
    "simple_response_rate",
    "aimd_response_rate",
    "padhye_rate_pps",
    "padhye_rate_per_rtt",
    "aimd_with_timeouts_rate",
]


@checked
def simple_response_rate(p: Probability) -> PositiveRatio:
    """Pure-AIMD (TCP a=1, b=1/2) rate in packets/RTT: sqrt(1.5 / p).

    The deterministic sawtooth model: one drop every 1/p packets.  Valid for
    p up to about 1/3 (one packet per RTT); the paper's Figure 20 plots it
    as "pure AIMD".
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    return math.sqrt(1.5 / p)


@checked
def aimd_response_rate(p: Probability, a: float, b: float) -> PositiveRatio:
    """Deterministic-model rate of AIMD(a, b) in packets/RTT.

    The sawtooth oscillates between (1-b)W and W with slope a per RTT; the
    mean is (1 - b/2) * sqrt(2a / (b(2-b) p)).  Reduces to sqrt(1.5/p) for
    (a, b) = (1, 1/2).
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if not 0 < b < 1 or a <= 0:
        raise ValueError("need a > 0 and 0 < b < 1")
    try:
        w_max = math.sqrt(2.0 * a / (b * (2.0 - b) * p))
    except ZeroDivisionError:
        return math.inf  # the p -> 0 limit, reached early by underflow
    return (1.0 - b / 2.0) * w_max


@checked
def padhye_rate_pps(
    p: Probability,
    rtt_s: PositiveSeconds,
    rto_s: PositiveSeconds | None = None,
) -> NonNegPps:
    """Padhye et al. Reno throughput in packets per second.

    X = 1 / (R*sqrt(2p/3) + t_RTO * min(1, 3*sqrt(3p/8)) * p * (1 + 32 p^2))

    This is the TFRC control equation (RFC 3448 uses b=1, i.e. no delayed
    ACKs, matching the paper).  ``rto_s`` defaults to 4 * rtt, the TFRC
    simplification.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    if p == 0:
        return math.inf
    if rto_s is None:
        # Kept finite: an overflowed inf times an underflowed loss term is nan.
        rto_s = min(4.0 * rtt_s, sys.float_info.max)
    sqrt_term = math.sqrt(2.0 * p / 3.0)
    timeout_term = rto_s * min(1.0, 3.0 * math.sqrt(3.0 * p / 8.0)) * p * (
        1.0 + 32.0 * p * p
    )
    try:
        return 1.0 / (rtt_s * sqrt_term + timeout_term)
    except ZeroDivisionError:
        return math.inf  # the p -> 0 limit, reached early by underflow


@checked
def padhye_rate_per_rtt(p: Probability) -> float:
    """Padhye model in packets per RTT (Figure 20's y-axis).

    With the default RTO of four RTTs the RTT cancels out: this is the
    packet rate at an RTT of one second.
    """
    return padhye_rate_pps(p, 1.0)


@checked
def aimd_with_timeouts_rate(p: Probability) -> NonNegRatio:
    """Appendix A model: AIMD extended below one packet/RTT via backoff.

    rate = (1/(1-p)) / (2^(1/(1-p)) - 1) packets per RTT.

    Derivation (Appendix A): with drop rate p = n/(n+1) the sender delivers
    n+1 packets over 2^(n+1) - 1 RTTs, halving its sub-packet-per-RTT rate
    on each loss exactly as exponential timer backoff does.  The paper notes
    the analysis is meaningful for p >= 0.5; the formula itself is defined
    on (0, 1).

    Near p = 1 the ``2^(1/(1-p))`` term overflows a double; the rate has
    underflowed to zero long before that, so this returns exactly 0.0
    instead of raising.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    n_plus_1 = 1.0 / (1.0 - p)
    try:
        backoff = 2.0 ** n_plus_1 - 1.0
    except OverflowError:
        # p this close to 1 means ~1/(1-p) doublings of the timer: the
        # rate underflows to zero long before the formula does.
        return 0.0
    if math.isinf(backoff):
        return 0.0
    return n_plus_1 / backoff
