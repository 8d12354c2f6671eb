"""Fairness metrics: Jain's index, normalized shares, δ-fair convergence.

Section 4.2.2 defines the δ-fair convergence time as the time for two flows
starting from a bandwidth allocation of (B - b0, b0) to reach
((1+δ)/2 B, (1-δ)/2 B).  Equivalently, the instant from which the poorer
flow holds at least (1-δ)/2 of the combined throughput.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry.measures import FlowMetrics
from repro.contracts import PositiveRate, PositiveSeconds, Probability, checked
from repro.units import Seconds

__all__ = [
    "jain_index",
    "normalized_shares",
    "delta_fair_convergence_time",
]


@checked
def jain_index(rates: Sequence[float]) -> Probability:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]."""
    if not rates:
        raise ValueError("need at least one rate")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    total = sum(rates)
    squares = sum(r * r for r in rates)
    if squares == 0:
        return 1.0  # all-zero allocation is (vacuously) even
    # Cauchy-Schwarz bounds the quotient by 1; rounding can overshoot it.
    return min(1.0, total * total / (len(rates) * squares))


@checked
def normalized_shares(
    accountant: FlowMetrics,
    flow_ids: Sequence[int],
    start: Seconds,
    end: Seconds,
    fair_share_bps: PositiveRate,
) -> list[float]:
    """Per-flow throughput normalized by a fair share (1.0 = exactly fair)."""
    if fair_share_bps <= 0:
        raise ValueError("fair share must be positive")
    return [
        accountant.throughput_bps(flow_id, start, end) / fair_share_bps
        for flow_id in flow_ids
    ]


@checked
def delta_fair_convergence_time(
    accountant: FlowMetrics,
    flow_a: int,
    flow_b: int,
    start: Seconds,
    end: Seconds,
    delta: Probability = 0.1,
    window_s: PositiveSeconds = 0.5,
    sustain_windows: int = 1,
) -> Optional[Seconds]:
    """Time from ``start`` until the flows share the link δ-fairly.

    Throughputs are smoothed over ``window_s``; returns the delay until the
    first window in which the poorer flow gets at least (1 - delta)/2 of
    the combined throughput (and the allocation stays meaningful, i.e. the
    pair is actually transmitting).  ``sustain_windows`` > 1 requires the
    condition to hold over that many consecutive windows, which rejects a
    momentary crossing during the entrant's slow-start overshoot.  None if
    it never converges in [start, end).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if sustain_windows < 1:
        raise ValueError("sustain_windows must be >= 1")
    t = start + window_s
    run_start: Optional[float] = None
    consecutive = 0
    while t <= end:
        a = accountant.throughput_bps(flow_a, t - window_s, t)
        b = accountant.throughput_bps(flow_b, t - window_s, t)
        total = a + b
        if total > 0 and min(a, b) / total >= (1.0 - delta) / 2.0:
            if consecutive == 0:
                run_start = t
            consecutive += 1
            if consecutive >= sustain_windows:
                assert run_start is not None
                return run_start - start
        else:
            consecutive = 0
            run_start = None
        t += window_s
    return None
