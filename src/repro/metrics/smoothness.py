"""Smoothness of transmission rates (Section 4.3).

The paper's smoothness metric is the largest ratio between the sending
rates in two consecutive round-trip times.  TFRC has a perfect smoothness
of 1 under periodic loss; TCP(b) has smoothness 1 - b (we report the metric
so that 1 is perfectly smooth and smaller is burstier, i.e. the *minimum*
consecutive ratio).
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
    cov: float  # coefficient of variation of the bin rates


@checked
def rate_bins(
    accountant: FlowMetrics,
    flow_id: int,
    bin_s: PositiveSeconds,
    start: Seconds,
    end: Seconds,
) -> list[float]:
    """Delivered rate (bps) over consecutive bins of ``bin_s`` seconds.

    Bin ``i`` spans ``start + i * bin_s`` to the next edge, computed by
    integer index: edges summed ``t += bin_s`` drift, and a drifted last
    edge past ``end`` loses the last bin.
    """
    if bin_s <= 0:
        raise ValueError("bin size must be positive")
    bins = []
    lo = start
    i = 1
    while (hi := start + i * bin_s) <= end:
        bins.append(accountant.throughput_bps(flow_id, lo, hi))
        lo = hi
        i += 1
    return bins


def smoothness(rates: Sequence[float]) -> SmoothnessResult:
    """Smoothness statistics of a rate sequence (one value per RTT/bin).

    Bins where both neighbours are zero are skipped (an idle flow is not
    "bursty"); a transition between zero and non-zero counts as maximally
    rough (ratio 0).
    """
    if len(rates) < 2:
        raise ValueError("need at least two rate samples")
    min_ratio = 1.0
    for previous, current in zip(rates, rates[1:]):
        if previous == 0 and current == 0:
            continue
        if previous == 0 or current == 0:
            min_ratio = 0.0
            continue
        ratio = current / previous
        min_ratio = min(min_ratio, ratio, 1.0 / ratio)
    return SmoothnessResult(min_ratio=min_ratio, cov=coefficient_of_variation(rates))


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
