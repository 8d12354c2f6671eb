"""Stabilization time and stabilization cost (Section 4.1).

After a sustained period of high congestion begins, the *stabilization
time* is the number of RTTs until the network loss rate diminishes to
within ``threshold`` (1.5) times its steady-state value for that congestion
level, with the loss rate averaged over the previous ten RTTs.  The
*stabilization cost* is the stabilization time multiplied by the average
loss rate (in percent) during the stabilization interval: a cost of 1 is
one full RTT's worth of packets dropped at the bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.telemetry.measures import LinkMetrics
from repro.contracts import NonNegSeconds, PositiveSeconds, Probability, checked
from repro.units import Ratio, Seconds

__all__ = ["StabilizationResult", "measure_stabilization"]


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of a stabilization measurement."""

    time_s: Seconds
    time_rtts: float
    mean_loss_during: Ratio  # fraction, averaged over the interval
    cost: float  # time_rtts * mean loss in percent... see the paper
    stabilized: bool  # False if the loss rate never came down in the run


@checked
def measure_stabilization(
    monitor: LinkMetrics,
    congestion_start: NonNegSeconds,
    steady_loss_rate: Probability,
    rtt_s: PositiveSeconds,
    end: Seconds,
    threshold: float = 1.5,
    window_rtts: int = 10,
) -> StabilizationResult:
    """Measure stabilization time and cost after ``congestion_start``.

    Scans the loss rate in a sliding window of ``window_rtts`` RTTs,
    stepping one RTT at a time, and reports the first instant the windowed
    loss rate is within ``threshold`` x ``steady_loss_rate``.
    """
    if steady_loss_rate < 0:
        raise ValueError("steady loss rate must be non-negative")
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    window = window_rtts * rtt_s
    target = threshold * steady_loss_rate
    t = congestion_start + window
    stabilized_at = None
    while t <= end:
        rate = monitor.loss_rate(t - window, t)
        if not math.isnan(rate) and rate <= target:
            stabilized_at = t
            break
        t += rtt_s
    if stabilized_at is None:
        # Never stabilized within the simulation: charge the whole run.
        duration = end - congestion_start
        mean_loss = monitor.loss_rate(congestion_start, end)
        mean_loss = 0.0 if math.isnan(mean_loss) else mean_loss
        rtts = duration / rtt_s
        return StabilizationResult(
            time_s=duration,
            time_rtts=rtts,
            mean_loss_during=mean_loss,
            cost=rtts * mean_loss * 100.0,
            stabilized=False,
        )
    duration = stabilized_at - congestion_start
    mean_loss = monitor.loss_rate(congestion_start, stabilized_at)
    mean_loss = 0.0 if math.isnan(mean_loss) else mean_loss
    rtts = duration / rtt_s
    return StabilizationResult(
        time_s=duration,
        time_rtts=rtts,
        mean_loss_during=mean_loss,
        cost=rtts * mean_loss * 100.0,
        stabilized=True,
    )
