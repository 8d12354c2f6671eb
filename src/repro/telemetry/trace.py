"""Offline trace access: recompute any metric without re-simulating.

:class:`TraceReader` parses the JSONL trace a
:class:`~repro.telemetry.recorder.Recorder` exported and rebuilds the
probes, so every windowed measurement (loss rate, throughput,
stabilization time...) can be recomputed from the artifact alone.
``link(name)`` and ``flows()`` reassemble the standard channel layouts
into :class:`~repro.telemetry.measures.LinkMetrics` /
:class:`~repro.telemetry.measures.FlowMetrics`, which run the exact same
arithmetic as the live monitors — JSON round-trips IEEE doubles exactly,
so replayed numbers are bit-identical.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Union

from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import CounterProbe, GaugeProbe, Probe, SeriesProbe
from repro.telemetry.series import TimeSeries

__all__ = ["TraceReader"]

_PROBE_KINDS = {
    "counter": CounterProbe,
    "series": SeriesProbe,
    "gauge": GaugeProbe,
}

_FLOW_BYTES = re.compile(r"^flow\.(\d+)\.bytes$")


class TraceReader:
    """Parsed view of one exported telemetry trace."""

    def __init__(self, meta: dict[str, Any], channels: dict[str, Probe]):
        self.meta = meta
        self.channels = channels

    # Construction ------------------------------------------------------------

    @classmethod
    def loads(cls, text: str) -> "TraceReader":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace")
        header = json.loads(lines[0])
        if "__telemetry__" not in header:
            raise ValueError("not a telemetry trace (missing header line)")
        meta = header.get("meta", {})
        channels: dict[str, Probe] = {}
        for line in lines[1:]:
            record = json.loads(line)
            name = record["channel"]
            kind = record["kind"]
            probe_cls = _PROBE_KINDS.get(kind)
            if probe_cls is None:
                raise ValueError(f"unknown channel kind {kind!r} for {name!r}")
            probe = probe_cls(name)
            try:
                probe.load(record["times"], record["values"])
            except ValueError as exc:
                raise ValueError(f"channel {name!r}: {exc}") from None
            channels[name] = probe
        return cls(meta, channels)

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path]) -> "TraceReader":
        return cls.loads(pathlib.Path(path).read_text(encoding="utf-8"))

    # Channel access ----------------------------------------------------------

    def __contains__(self, channel: str) -> bool:
        return channel in self.channels

    def channel(self, name: str) -> Probe:
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(
                f"trace has no channel {name!r}; "
                f"available: {sorted(self.channels)}"
            ) from None

    def counter(self, name: str) -> CounterProbe:
        probe = self.channel(name)
        if not isinstance(probe, CounterProbe):
            raise TypeError(f"channel {name!r} is {probe.kind}, not counter")
        return probe

    def series(self, name: str) -> TimeSeries:
        probe = self.channel(name)
        if not isinstance(probe, SeriesProbe):
            raise TypeError(f"channel {name!r} is {probe.kind}, not series")
        return probe.series

    # Standard layouts --------------------------------------------------------

    def link(self, name: str) -> LinkMetrics:
        """Rebuild a link's metrics from its ``link.<name>.*`` channels."""
        prefix = f"link.{name}."
        if not any(key.startswith(prefix) for key in self.channels):
            raise KeyError(f"trace has no channels for link {name!r}")
        metrics = LinkMetrics(
            name, bandwidth_bps=self.meta.get(f"link.{name}.bandwidth_bps")
        )
        for attr, suffix in (
            ("arrivals", "arrivals"),
            ("drops", "drops"),
            ("marks", "marks"),
        ):
            probe = self.channels.get(prefix + suffix)
            if isinstance(probe, CounterProbe):
                setattr(metrics, attr, probe)
        departures = self.channels.get(prefix + "departed_bytes")
        if isinstance(departures, SeriesProbe):
            metrics.departures = departures
        queue_depth = self.channels.get(prefix + "queue_pkts")
        if isinstance(queue_depth, GaugeProbe):
            metrics.queue_depth = queue_depth
        return metrics

    def flows(self) -> FlowMetrics:
        """Rebuild per-flow accounting from ``flow.<id>.bytes`` channels."""
        metrics = FlowMetrics()
        for name, probe in self.channels.items():
            match = _FLOW_BYTES.match(name)
            if match and isinstance(probe, SeriesProbe):
                metrics._probes[int(match.group(1))] = probe
        return metrics
