"""Link monitors and per-flow accounting: the live measurement frontends.

:class:`LinkMonitor` and :class:`FlowAccountant` are thin *live
frontends* over the telemetry measurement bases
(:class:`~repro.telemetry.measures.LinkMetrics` /
:class:`~repro.telemetry.measures.FlowMetrics`): they wire simulation
components (queue probes, a link's departures probe, receiver callbacks)
into the channels and inherit every derived metric — loss rate, utilization,
per-flow throughput — from the base, so the identical arithmetic runs
over a trace replayed offline.

When a :class:`~repro.telemetry.recorder.Recorder` is passed (or active
via :func:`~repro.telemetry.context.capture`), all channels are adopted
under hierarchical names (``link.<name>.drops``, ``flow.<id>.bytes``)
and end up in the exported trace.  Without one, a link's departures are
pay-for-use: recorded only after :meth:`LinkMonitor.record_departures`.
Every channel is a plain probe the monitor writes into; none reads the
network back, so a recorder holding the channels holds no network.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import QueueProbes
from repro.sim.engine import Simulator, Timer
from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import SeriesProbe
from repro.telemetry.recorder import Recorder
from repro.units import Seconds

__all__ = ["LinkMonitor", "FlowAccountant"]


class LinkMonitor(LinkMetrics):
    """Observes arrivals, drops, marks and departures on one link.

    Attach with :meth:`attach`; the monitor hands the queue a probe
    bundle and, when departures are recorded, hands the link its
    ``departed_bytes`` probe (:meth:`Link.record_departures`), which the
    link writes itself.
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
        self._queue_pkts: Optional[SeriesProbe] = None  # set once sampling starts
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

        The link writes each serialization into the probe when it starts, stamped
        with the time it ends, so a run stopped mid-serialization holds that packet
        too, after the horizon.  That is a probe write per packet and no calendar
        entry, and only a recorder or this request (made before ``sim.run()``)
        turns it on.
        """
        if self._link is None:
            raise RuntimeError("monitor is not attached to a link")
        if self.departures is not None:
            return
        probe = self.departures = SeriesProbe("departed_bytes")
        if self._recorder is not None:
            self._recorder.adopt(f"link.{self.name}.departed_bytes", probe)
        self._link.record_departures(probe)

    def sample_queue(self, period_s: Seconds) -> SeriesProbe:
        """Start periodic queue-occupancy sampling; returns the series.

        The ``queue_pkts`` series records (time, packets queued) every
        ``period_s`` seconds, the first one ``period_s`` from now, until the
        end of the simulation — the standing-queue dynamics the paper's
        Section 2 background discusses.  A link is sampled at one period:
        a second call raises.
        """
        if self._link is None:
            raise RuntimeError("monitor is not attached to a link")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if self._queue_pkts is not None:
            raise RuntimeError(f"the queue of link {self.name!r} is already sampled")
        series = self._queue_pkts = SeriesProbe("queue_pkts")
        if self._recorder is not None:
            self._recorder.adopt(f"link.{self.name}.queue_pkts", series)
        sim, queue = self.sim, self._link.queue

        def sample() -> None:
            series.record(sim.now, float(len(queue)))
            timer.schedule(period_s)

        timer = Timer(sim, sample)
        timer.schedule(period_s)
        return series


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
