"""Analytical model of transient fairness for AIMD flows (Section 4.2.2).

Two AIMD(a, b) flows share a link with a steady packet mark rate p.  The
i-th ACK belongs to flow j with probability proportional to flow j's
window; working through the expected window updates, the expected window
*difference* contracts by a factor (1 - bp) per ACK:

    rho_{i+1} = rho_i * (1 - b p)

so the expected number of ACKs to go from a highly skewed allocation to a
δ-fair one is log_{1-bp}(δ) — Figure 11 plots this against b.  The model
holds for moderate-to-low loss rates (no timeouts, single losses per
window).
"""

from __future__ import annotations

import math

from repro.contracts import Probability, checked

__all__ = [
    "acks_to_fairness",
    "contraction_factor",
    "iterate_expected_windows",
]


@checked
def contraction_factor(b: Probability, p: Probability) -> Probability:
    """Per-ACK contraction of the expected window difference: 1 - bp."""
    if not 0 < b < 1:
        raise ValueError("b must be in (0, 1)")
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return 1.0 - b * p


@checked
def acks_to_fairness(b: Probability, p: Probability, delta: Probability = 0.1) -> float:
    """Expected ACK count for δ-fair convergence: log_{1-bp}(δ).

    Grows like 1/(b p) * ln(1/δ) as b -> 0: convergence time blows up
    exponentially on Figure 11's log axis as the decrease factor shrinks.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    factor = contraction_factor(b, p)
    try:
        return math.log(delta) / math.log(factor)
    except ZeroDivisionError:
        return math.inf  # the bp -> 0 limit: 1 - bp rounded to 1


def iterate_expected_windows(
    x1: float,
    x2: float,
    a: float,
    b: float,
    p: float,
    steps: int,
) -> list[tuple[float, float]]:
    """Iterate the paper's expected-window recurrence for ``steps`` ACKs.

    Each ACK belongs to flow j with probability X_j / (X_1 + X_2) and then
    applies the expected AIMD update a(1-p)/X_j - b p X_j.  Used to
    cross-check the closed-form contraction factor.
    """
    if x1 <= 0 or x2 <= 0:
        raise ValueError("windows must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = [(x1, x2)]
    for _ in range(steps):
        total = x1 + x2
        x1 = x1 + (x1 / total) * (a * (1.0 - p) / x1 - b * p * x1)
        x2 = x2 + (x2 / total) * (a * (1.0 - p) / x2 - b * p * x2)
        out.append((x1, x2))
    return out
