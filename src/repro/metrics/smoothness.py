"""Smoothness of transmission rates (Section 4.3).

The paper's smoothness metric is the largest ratio between the sending
rates in two consecutive round-trip times.  TFRC has a perfect smoothness
of 1 under periodic loss; TCP(b) has smoothness 1 - b (we report the metric
so that 1 is perfectly smooth and smaller is burstier, i.e. the *minimum*
consecutive ratio; the inverse convention — max ratio >= 1 — is also
provided since both appear in the literature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.measures import FlowMetrics
from repro.contracts import NonNegRatio, PositiveSeconds, checked
from repro.units import Seconds

__all__ = ["SmoothnessResult", "rate_bins", "smoothness", "coefficient_of_variation"]


@dataclass(frozen=True)
class SmoothnessResult:
    """Smoothness statistics of one flow's delivered-rate series."""

    min_ratio: float  # worst consecutive-bin decrease (1 = perfectly smooth)
    max_ratio: float  # worst consecutive-bin change as a ratio >= 1
    cov: float  # coefficient of variation of the bin rates


@checked
def rate_bins(
    accountant: FlowMetrics,
    flow_id: int,
    bin_s: PositiveSeconds,
    start: Seconds,
    end: Seconds,
) -> list[float]:
    """Delivered rate (bps) over consecutive bins of ``bin_s`` seconds."""
    if bin_s <= 0:
        raise ValueError("bin size must be positive")
    bins = []
    t = start
    while t + bin_s <= end:
        bins.append(accountant.throughput_bps(flow_id, t, t + bin_s))
        t += bin_s
    return bins


def smoothness(rates: Sequence[float]) -> SmoothnessResult:
    """Smoothness statistics of a rate sequence (one value per RTT/bin).

    Bins where both neighbours are zero are skipped (an idle flow is not
    "bursty"); a transition between zero and non-zero counts as maximally
    rough (ratio 0 / inf).
    """
    if len(rates) < 2:
        raise ValueError("need at least two rate samples")
    min_ratio = 1.0
    max_ratio = 1.0
    for previous, current in zip(rates, rates[1:]):
        if previous == 0 and current == 0:
            continue
        if previous == 0 or current == 0:
            min_ratio = 0.0
            max_ratio = math.inf
            continue
        ratio = current / previous
        min_ratio = min(min_ratio, ratio, 1.0 / ratio)
        max_ratio = max(max_ratio, ratio, 1.0 / ratio)
    return SmoothnessResult(
        min_ratio=min_ratio, max_ratio=max_ratio, cov=coefficient_of_variation(rates)
    )


@checked
def coefficient_of_variation(rates: Sequence[float]) -> NonNegRatio:
    """Std-dev over mean of the rate sequence (0 = perfectly smooth)."""
    if not rates:
        raise ValueError("need at least one rate sample")
    mean = sum(rates) / len(rates)
    if mean == 0:
        return 0.0
    variance = sum((r - mean) ** 2 for r in rates) / len(rates)
    return math.sqrt(variance) / mean
