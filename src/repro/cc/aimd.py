"""The TCP-compatibility relation for AIMD.

An AIMD algorithm increases its window by ``a`` packets per RTT without
loss, and multiplies it by ``(1 - b)`` on a loss event.  The paper adopts
the Yang & Lam relation

    a = 4 (2b - b^2) / 3

for a TCP-compatible AIMD(a, b): with it, AIMD(a, b) matches TCP's
(a=1, b=1/2) response function.

The paper's slowness parameter gamma maps to b = 1/gamma, i.e. TCP(1/gamma)
is AIMD with decrease factor 1/gamma plus the full TCP machinery.
"""

from __future__ import annotations

from repro.contracts import Probability, checked

__all__ = ["tcp_compatible_a"]


@checked
def tcp_compatible_a(b: Probability) -> float:
    """Paper's (Yang & Lam) TCP-compatible increase for decrease factor b."""
    if not 0 < b < 1:
        raise ValueError("b must be in (0, 1)")
    return 4.0 * (2.0 * b - b * b) / 3.0
