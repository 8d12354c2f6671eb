"""Measurement taps: link monitors and per-flow accounting.

:class:`LinkMonitor` and :class:`FlowAccountant` are thin *live
frontends* over the telemetry measurement bases
(:class:`~repro.telemetry.measures.LinkMetrics` /
:class:`~repro.telemetry.measures.FlowMetrics`): they wire simulation
components (queue probes, link taps, receiver callbacks) into the
channels and inherit every derived metric — loss rate, utilization,
per-flow throughput — from the base, so the identical arithmetic runs
over a trace replayed offline.

When a :class:`~repro.telemetry.recorder.Recorder` is passed (or active
via :func:`~repro.telemetry.context.capture`), all channels are adopted
under hierarchical names (``link.<name>.drops``, ``flow.<id>.bytes``)
and end up in the exported trace.  Without one, a link's departures are
pay-for-use: recorded only after :meth:`LinkMonitor.record_departures`.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import QueueProbes
from repro.sim.engine import Simulator
from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import GaugeProbe, SeriesProbe
from repro.telemetry.recorder import Recorder
from repro.telemetry.series import TimeSeries
from repro.units import Seconds

__all__ = ["LinkMonitor", "FlowAccountant"]


class LinkMonitor(LinkMetrics):
    """Observes arrivals, drops, marks and departures on one link.

    Attach with :meth:`attach`; the monitor hands the queue a probe
    bundle and, when departures are recorded, registers a departure tap
    on the link (no monkey-patching of link internals).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "",
        recorder: Optional[Recorder] = None,
    ):
        super().__init__(name=name or "link")
        self.sim = sim
        self._link: Optional[Link] = None
        self._queue_sampler = None  # PeriodicTask once sampling starts
        self._recorder = recorder
        if recorder is not None:
            prefix = f"link.{self.name}"
            recorder.adopt(f"{prefix}.arrivals", self.arrivals)
            recorder.adopt(f"{prefix}.drops", self.drops)
            recorder.adopt(f"{prefix}.marks", self.marks)

    def attach(self, link: Link) -> None:
        if self._link is not None:
            raise RuntimeError("monitor is already attached to a link")
        self._link = link
        self.bandwidth_bps = link.bandwidth_bps
        link.queue.telemetry = QueueProbes(
            arrivals=self.arrivals, drops=self.drops, marks=self.marks
        )
        if self._recorder is not None:
            self._recorder.annotate(
                f"link.{self.name}.bandwidth_bps", link.bandwidth_bps
            )
            self.record_departures()

    def record_departures(self) -> None:
        """Record ``departed_bytes`` from now on: what ``utilization`` reads.

        The tap costs a calendar event for every packet nothing waits
        behind, so only a recorder or this request (made before
        ``sim.run()``) turns it on.
        """
        if self._link is None:
            raise RuntimeError("monitor is not attached to a link")
        if self.departures is not None:
            return
        probe = self.departures = SeriesProbe("departed_bytes")
        if self._recorder is not None:
            self._recorder.adopt(f"link.{self.name}.departed_bytes", probe)
        sim = self.sim
        departed = 0

        def on_departure(packet: Packet) -> None:
            nonlocal departed
            departed += packet.size
            probe.record(sim.now, departed)

        self._link.add_tap(on_departure)

    def sample_queue(self, period_s: Optional[Seconds] = None) -> TimeSeries:
        """Start periodic queue-occupancy sampling; returns the series.

        The series records (time, packets queued) every ``period_s``
        seconds (the recorder's cadence by default) until :meth:`stop`
        or the end of the simulation — the standing-queue dynamics the
        paper's Section 2 background discusses.
        """
        if self._link is None:
            raise RuntimeError("monitor is not attached to a link")
        if period_s is None:
            if self._recorder is None:
                raise ValueError("period_s required without a recorder cadence")
            period_s = self._recorder.cadence_s
        from repro.sim.process import PeriodicTask

        link = self._link
        if self.queue_depth is None:
            gauge = GaugeProbe("queue_pkts", read=lambda: float(len(link.queue)))
            self.queue_depth = gauge
            if self._recorder is not None:
                self._recorder.adopt(f"link.{self.name}.queue_pkts", gauge)
        else:
            # Restarting (e.g. at a new period) keeps appending to the
            # same channel rather than shadowing it with a fresh gauge.
            gauge = self.queue_depth
            gauge.read = lambda: float(len(link.queue))

        def snapshot() -> None:
            gauge.sample(self.sim.now)

        if self._queue_sampler is not None:
            self._queue_sampler.stop()
        task = PeriodicTask(self.sim, period_s, snapshot)
        task.start()
        self._queue_sampler = task
        return gauge.series

    def stop(self) -> None:
        """Stop periodic sampling; safe to call at any lifecycle stage."""
        if self._queue_sampler is not None:
            self._queue_sampler.stop()
            self._queue_sampler = None


class FlowAccountant(FlowMetrics):
    """Counts data delivered to receivers, per flow."""

    def __init__(self, sim: Simulator, recorder: Optional[Recorder] = None):
        super().__init__()
        self.sim = sim
        self._recorder = recorder
        self._delivered: dict[int, float] = {}  # running total per flow

    def on_deliver(self, packet: Packet) -> None:
        """Record a data packet that reached its receiver."""
        flow_id = packet.flow_id
        probe = self._probes.get(flow_id)
        if probe is None:
            probe = self._probes[flow_id] = SeriesProbe(f"flow{flow_id}_bytes")
            if self._recorder is not None:
                self._recorder.adopt(f"flow.{flow_id}.bytes", probe)
            self._delivered[flow_id] = 0.0
        delivered = self._delivered
        delivered[flow_id] = total = delivered[flow_id] + packet.size
        probe.record(self.sim.now, total)
