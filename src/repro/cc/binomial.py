"""Window-update rules: AIMD and the binomial generalization.

Binomial congestion control (Bansal & Balakrishnan, Infocom 2001) updates
the window W as

    increase per RTT without loss:  W <- W + a / W^k
    decrease on a loss event:       W <- W - b * W^l

AIMD is the (k=0, l=1) member.  A binomial algorithm is TCP-compatible iff
k + l = 1 (with suitable a, b) and slowly-responsive for l < 1.  The paper
studies SQRT (k = l = 1/2) and IIAD (k = 1, l = 0).

TCP-compatible constants: for AIMD we use the paper's a = 4(2b - b^2)/3.
For k > 0 the deterministic sawtooth gives, to leading order in 1/W, a mean
rate of sqrt(a/(bp)) packets/RTT regardless of k; matching sqrt(1.5/p)
yields a = 1.5 b, which we use for SQRT and IIAD (documented approximation —
the paper itself only requires "suitable values of a and b").
"""

from __future__ import annotations

from repro.cc.aimd import tcp_compatible_a
from repro.cc.base import WindowRule
from repro.contracts import CwndPackets, PositiveRatio, Probability, checked
from repro.units import Packets

__all__ = [
    "BinomialRule",
    "AimdRule",
    "tcp_rule",
    "sqrt_rule",
    "iiad_rule",
    "binomial_compatible_a",
]

_MIN_WINDOW = 1.0


@checked
def binomial_compatible_a(k: float, l: float, b: PositiveRatio) -> float:
    """Leading-order TCP-compatible increase constant for k + l = 1."""
    if abs(k + l - 1.0) > 1e-9:
        raise ValueError("TCP-compatible binomial algorithms need k + l = 1")
    if b <= 0:
        raise ValueError("b must be positive")
    return 1.5 * b


class BinomialRule(WindowRule):
    """General binomial window rule with parameters (k, l, a, b)."""

    @checked
    def __init__(self, k: float, l: float, a: float, b: PositiveRatio, name: str = ""):
        if a <= 0 or b <= 0:
            raise ValueError("a and b must be positive")
        if k < 0 or l < 0 or l > 1:
            raise ValueError("need k >= 0 and 0 <= l <= 1")
        self.k = k
        self.l = l
        self.a = a
        self.b = b
        self.name = name or f"binomial(k={k},l={l})"

    @property
    def is_tcp_compatible(self) -> bool:
        return abs(self.k + self.l - 1.0) < 1e-9

    @property
    def is_slowly_responsive(self) -> bool:
        """Reduces by less than half of the window on a loss event."""
        if self.l < 1:
            return True
        return self.b < 0.5

    @checked
    def increase_per_ack(self, w: CwndPackets) -> Packets:
        # a / W^k per RTT spread over the ~W ACKs of that RTT.
        return self.a / (w ** (self.k + 1.0))

    @checked
    def decrease(self, w: CwndPackets) -> CwndPackets:
        return max(w - self.b * (w ** self.l), _MIN_WINDOW)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name} a={self.a:.4g} b={self.b:.4g}>"


class AimdRule(BinomialRule):
    """AIMD(a, b): the k=0, l=1 binomial."""

    @checked
    def __init__(self, a: float, b: Probability, name: str = ""):
        if not 0 < b < 1:
            raise ValueError("AIMD decrease factor b must be in (0, 1)")
        super().__init__(0.0, 1.0, a, b, name or f"aimd(a={a:.3g},b={b:.3g})")


@checked
def tcp_rule(b: Probability = 0.5) -> AimdRule:
    """TCP-compatible AIMD rule for decrease factor ``b`` (paper's a(b))."""
    return AimdRule(tcp_compatible_a(b), b, name=f"tcp({b:.4g})")


@checked
def sqrt_rule(b: Probability = 0.5) -> BinomialRule:
    """TCP-compatible SQRT rule: k = l = 1/2, decrease factor ``b``.

    SQRT(1/gamma) in the paper is ``sqrt_rule(gamma_to_b(gamma))``.
    """
    return BinomialRule(0.5, 0.5, binomial_compatible_a(0.5, 0.5, b), b, name=f"sqrt({b:.4g})")


@checked
def iiad_rule(b: PositiveRatio = 1.0, a: float | None = None) -> BinomialRule:
    """IIAD rule: k = 1, l = 0, additive decrease ``b`` packets.

    The default increase constant follows Bansal & Balakrishnan's IIAD
    configuration (a = 1), which sits slightly below the leading-order
    TCP-compatible value 1.5 b — matching the paper's observation that
    IIAD "achieves smoothness at the cost of throughput".  Pass
    ``a=binomial_compatible_a(1, 0, b)`` for the exactly-compatible
    variant.
    """
    if a is None:
        a = 1.0 * b
    return BinomialRule(1.0, 0.0, a, b, name=f"iiad({b:.4g})")
