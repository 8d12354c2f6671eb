"""AIMD parameterization and TCP-compatibility relations.

An AIMD algorithm increases its window by ``a`` packets per RTT without
loss, and multiplies it by ``(1 - b)`` on a loss event.  The paper adopts
the Yang & Lam relation

    a = 4 (2b - b^2) / 3

for a TCP-compatible AIMD(a, b): with it, AIMD(a, b) matches TCP's
(a=1, b=1/2) response function.  The deterministic sawtooth model yields the
slightly different relation a = 3b / (2 - b); both give a = 1 at b = 1/2 and
both are provided, with the paper's as the default.

The paper's slowness parameter gamma maps to b = 1/gamma, i.e. TCP(1/gamma)
is AIMD with decrease factor 1/gamma plus the full TCP machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.contracts import Probability, checked

__all__ = [
    "tcp_compatible_a",
    "deterministic_a",
    "AimdParams",
    "aimd_params",
    "gamma_to_b",
]


@checked
def tcp_compatible_a(b: Probability) -> float:
    """Paper's (Yang & Lam) TCP-compatible increase for decrease factor b."""
    if not 0 < b < 1:
        raise ValueError("b must be in (0, 1)")
    return 4.0 * (2.0 * b - b * b) / 3.0


@checked
def deterministic_a(b: Probability) -> float:
    """Deterministic-sawtooth TCP-compatible increase: a = 3b / (2 - b)."""
    if not 0 < b < 1:
        raise ValueError("b must be in (0, 1)")
    return 3.0 * b / (2.0 - b)


@checked
def gamma_to_b(gamma: float) -> Probability:
    """Map the paper's slowness parameter gamma to a decrease factor."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return 1.0 / gamma


@dataclass(frozen=True)
class AimdParams:
    """An (a, b) pair with convenience properties."""

    a: float
    b: Probability

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("a must be positive")
        if not 0 < self.b < 1:
            raise ValueError("b must be in (0, 1)")

    @property
    @checked
    def decrease_ratio(self) -> Probability:
        """Window multiplier applied on a loss event: 1 - b."""
        return 1.0 - self.b

    @property
    def is_slowly_responsive(self) -> bool:
        """Slower than TCP: reduces by less than half on a loss."""
        return self.b < 0.5

    @property
    @checked
    def smoothness(self) -> Probability:
        """Paper's steady-state smoothness metric for AIMD: 1 - b."""
        return 1.0 - self.b


@checked
def aimd_params(b: Probability, relation: str = "yang-lam") -> AimdParams:
    """TCP-compatible AIMD parameters for decrease factor ``b``.

    ``relation`` selects the a(b) rule: ``"yang-lam"`` (the paper's
    a = 4(2b - b^2)/3) or ``"deterministic"`` (a = 3b/(2 - b)).
    """
    if relation == "yang-lam":
        return AimdParams(tcp_compatible_a(b), b)
    if relation == "deterministic":
        return AimdParams(deterministic_a(b), b)
    raise ValueError(f"unknown relation {relation!r}")
