"""First-class telemetry: typed probes, a central recorder, trace replay.

Every measurement in the repo flows through this package.  Components
emit into :class:`Probe` handles (counter / series), which hold samples
and nothing else; a :class:`Recorder` collects probes under hierarchical
channel names (``link.bottleneck.drops``, ``flow.3.cwnd``), so it never
holds the network, and exports JSONL traces;
:class:`TraceReader` rebuilds the channels offline so any metric can be
recomputed without re-simulating.  See ``docs/telemetry.md``.
"""

from repro.telemetry.context import active_recorder, capture
from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import CounterProbe, Probe, SeriesProbe
from repro.telemetry.recorder import Recorder, TRACE_SCHEMA_VERSION
from repro.telemetry.trace import TraceReader

__all__ = [
    "CounterProbe",
    "FlowMetrics",
    "LinkMetrics",
    "Probe",
    "Recorder",
    "SeriesProbe",
    "TraceReader",
    "TRACE_SCHEMA_VERSION",
    "active_recorder",
    "capture",
]
