"""Link utilization metrics, including the paper's f(k) (Section 4.2.3).

f(k) is the fraction of the available bandwidth achieved over the first k
round-trip times after the available bandwidth has doubled; it measures how
sluggishly a (slowly-responsive) algorithm exploits a time of plenty.
"""

from __future__ import annotations

from typing import Sequence

from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.contracts import PositiveSeconds, checked
from repro.units import Ratio, Seconds

__all__ = ["f_of_k", "flows_f_of_k"]


@checked
def f_of_k(
    monitor: LinkMetrics,
    event_time: Seconds,
    k: int,
    rtt_s: PositiveSeconds,
) -> Ratio:
    """Link utilization over the first k RTTs after ``event_time``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rtt_s <= 0:
        raise ValueError("rtt must be positive")
    return monitor.utilization(event_time, event_time + k * rtt_s)


def flows_f_of_k(
    accountant: FlowMetrics,
    flow_ids: Sequence[int],
    available_bps: float,
    event_time: Seconds,
    k: int,
    rtt_s: Seconds,
) -> Ratio:
    """f(k) measured from specific flows' deliveries against ``available_bps``.

    Used when other traffic shares the link and raw link utilization would
    not isolate the studied flows.
    """
    if available_bps <= 0:
        raise ValueError("available bandwidth must be positive")
    end = event_time + k * rtt_s
    delivered = sum(
        accountant.delivered_bytes(flow_id, event_time, end) for flow_id in flow_ids
    )
    capacity_bytes = available_bps * (end - event_time) / 8.0
    return delivered / capacity_bytes
