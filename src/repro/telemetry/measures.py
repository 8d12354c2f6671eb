"""Measurement views over telemetry channels: link and flow metrics.

These classes hold the *arithmetic* of the paper's measurements — loss
rate, utilization, per-flow throughput — decoupled from how the samples
got there.  Live monitors (:class:`repro.net.monitor.LinkMonitor`,
:class:`repro.net.monitor.FlowAccountant`) subclass them and fill the
probes during simulation; :class:`repro.telemetry.trace.TraceReader`
builds bare instances from a saved trace.  Because both paths run the
same code over the same floats (a trace column is the live buffer,
packed), a replayed metric is bit-identical to the live one.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.telemetry.probes import CounterProbe, GaugeProbe, SeriesProbe
from repro.telemetry.series import TimeSeries
from repro.units import BitsPerSecond, Bytes, Ratio, Seconds

__all__ = ["LinkMetrics", "FlowMetrics"]


def _growth(series: TimeSeries, start: Seconds, end: Seconds) -> float:
    """Growth of a cumulative series over [start, end); 0 before its first sample."""
    return (series.last_before(end) or 0.0) - (series.last_before(start) or 0.0)


class LinkMetrics:
    """Arrival/drop/mark/departure channels of one link, plus derived rates.

    All windowed counts use the half-open convention ``[start, end)``.
    """

    def __init__(
        self, name: str = "link", bandwidth_bps: Optional[BitsPerSecond] = None
    ):
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.arrivals = CounterProbe("arrivals")
        self.drops = CounterProbe("drops")
        self.marks = CounterProbe("marks")  # ECN CE marks (RED marking mode)
        self.departures: Optional[SeriesProbe] = None  # pay-for-use: None = not recorded
        self.queue_depth: Optional[GaugeProbe] = None

    def arrivals_in(self, start: Seconds, end: Seconds) -> int:
        return self.arrivals.count_in(start, end)

    def drops_in(self, start: Seconds, end: Seconds) -> int:
        return self.drops.count_in(start, end)

    def marks_in(self, start: Seconds, end: Seconds) -> int:
        return self.marks.count_in(start, end)

    def mark_rate(self, start: Seconds, end: Seconds) -> Ratio:
        """Fraction of arrivals CE-marked over [start, end); NaN if idle."""
        arrivals = self.arrivals_in(start, end)
        if arrivals == 0:
            return math.nan
        return self.marks_in(start, end) / arrivals

    def loss_rate(self, start: Seconds, end: Seconds) -> Ratio:
        """Fraction of arrivals dropped over [start, end); NaN if idle."""
        arrivals = self.arrivals_in(start, end)
        if arrivals == 0:
            return math.nan
        return self.drops_in(start, end) / arrivals

    def loss_rate_series(
        self,
        window_s: Seconds,
        start: Seconds,
        end: Seconds,
        stride_s: Seconds = 0.0,
    ) -> TimeSeries:
        """Loss rate over a sliding window.

        Each sample at time t is the loss rate over [t - window_s, t).  The
        paper averages the loss rate over the previous ten RTTs; pass
        ``window_s = 10 * rtt``.  ``stride_s`` defaults to the window length
        (non-overlapping windows).  Window edges are computed by integer
        index (``start + window_s + i * stride``) so accumulated rounding
        error cannot skew the boundaries on long runs.
        """
        stride = stride_s if stride_s > 0 else window_s
        series = TimeSeries("loss_rate")
        i = 0
        while True:
            t = start + window_s + i * stride
            if t > end:
                break
            rate = self.loss_rate(t - window_s, t)
            if not math.isnan(rate):
                series.append(t, rate)
            i += 1
        return series

    def departed_bytes_in(self, start: Seconds, end: Seconds) -> Bytes:
        if self.departures is None:
            raise RuntimeError(
                f"departures of link {self.name!r} were not recorded: call its monitor's "
                "record_departures() before sim.run(), or build it under telemetry.capture()"
            )
        return _growth(self.departures.series, start, end)

    def utilization(self, start: Seconds, end: Seconds) -> Ratio:
        """Fraction of the link's capacity used over [start, end)."""
        if self.bandwidth_bps is None:
            raise RuntimeError("link bandwidth unknown (monitor not attached?)")
        capacity_bytes = self.bandwidth_bps * (end - start) / 8.0
        if capacity_bytes <= 0:
            return 0.0
        return self.departed_bytes_in(start, end) / capacity_bytes


class FlowMetrics:
    """Per-flow cumulative delivered-bytes channels and derived throughput."""

    def __init__(self) -> None:
        self._probes: dict[int, SeriesProbe] = {}

    @property
    def flows(self) -> list[int]:
        return sorted(self._probes)

    def delivered_bytes(self, flow_id: int, start: Seconds, end: Seconds) -> Bytes:
        probe = self._probes.get(flow_id)
        if probe is None:
            return 0.0
        return _growth(probe.series, start, end)

    def throughput_bps(
        self, flow_id: int, start: Seconds, end: Seconds
    ) -> BitsPerSecond:
        """Average delivered rate of one flow over [start, end), bits/s."""
        duration = end - start
        if duration <= 0:
            return 0.0
        return self.delivered_bytes(flow_id, start, end) * 8.0 / duration
