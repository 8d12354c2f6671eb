"""First-class telemetry: typed probes, a central recorder, trace replay.

Every measurement in the repo flows through this package.  Components
emit into :class:`Probe` handles (counter / gauge / series); a
:class:`Recorder` collects probes under hierarchical channel names
(``link.bottleneck.drops``, ``flow.3.cwnd``) and exports JSONL traces;
:class:`TraceReader` rebuilds the channels offline so any metric can be
recomputed without re-simulating.  See ``docs/telemetry.md``.
"""

from repro.telemetry.context import active_recorder, capture
from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import CounterProbe, GaugeProbe, Probe, SeriesProbe
from repro.telemetry.recorder import Recorder, TRACE_SCHEMA_VERSION
from repro.telemetry.series import TimeSeries
from repro.telemetry.trace import TraceReader

__all__ = [
    "CounterProbe",
    "FlowMetrics",
    "GaugeProbe",
    "LinkMetrics",
    "Probe",
    "Recorder",
    "SeriesProbe",
    "TimeSeries",
    "TraceReader",
    "TRACE_SCHEMA_VERSION",
    "active_recorder",
    "capture",
]
