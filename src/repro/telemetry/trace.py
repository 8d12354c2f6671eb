"""Offline trace access: recompute any metric without re-simulating.

:class:`TraceReader` parses the JSONL trace a
:class:`~repro.telemetry.recorder.Recorder` exported and rebuilds the
probes, so every windowed measurement (loss rate, throughput,
stabilization time...) can be recomputed from the artifact alone.
``link(name)`` and ``flows()`` reassemble the standard channel layouts
into :class:`~repro.telemetry.measures.LinkMetrics` /
:class:`~repro.telemetry.measures.FlowMetrics`, which run the exact same
arithmetic as the live monitors — a column on disk is the live
``array('d')`` buffer itself (base64 of little-endian float64), so
replayed numbers are bit-identical by construction.

Only the current schema is read: a trace written under another
``TRACE_SCHEMA_VERSION`` is re-recorded, not converted (the result cache
treats it as absent, see ``ResultCache.has_trace``).
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Union

from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import (
    CounterProbe,
    GaugeProbe,
    Probe,
    SeriesProbe,
    unpack_column,
)
from repro.telemetry.recorder import TRACE_SCHEMA_VERSION
from repro.telemetry.series import TimeSeries

__all__ = ["TraceReader", "parse_header"]

_PROBE_KINDS = {
    "counter": CounterProbe,
    "series": SeriesProbe,
    "gauge": GaugeProbe,
}

_FLOW_BYTES = re.compile(r"^flow\.(\d+)\.bytes$")


def parse_header(line: str) -> dict[str, Any]:
    """The ``meta`` of a trace whose first line is ``line``.

    ``ValueError`` when the line is not a trace header or declares a
    schema other than :data:`TRACE_SCHEMA_VERSION`.
    """
    try:
        header = json.loads(line)
    except ValueError:
        header = None
    if not isinstance(header, dict) or "__telemetry__" not in header:
        raise ValueError("not a telemetry trace (missing header line)")
    found = header["__telemetry__"]
    if found != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace schema {found!r} found, {TRACE_SCHEMA_VERSION} expected: "
            "re-record it with 'repro run FIG --trace'"
        )
    return header.get("meta", {})


def _load_channel(line: str, channels: dict[str, Probe]) -> None:
    """Add the probe one channel line describes; ``ValueError`` otherwise."""
    record = json.loads(line)
    if not isinstance(record, dict) or not isinstance(record.get("channel"), str):
        raise ValueError("not a channel record (no 'channel' name)")
    name = record["channel"]
    try:
        if name in channels:
            raise ValueError("an earlier line already holds it")
        kind = record.get("kind")
        probe_cls = _PROBE_KINDS.get(kind) if isinstance(kind, str) else None
        if probe_cls is None:
            raise ValueError(f"unknown channel kind {kind!r}")
        expected = {"channel", "kind", "n", *probe_cls.columns}
        if set(record) != expected:
            raise ValueError(
                f"a {kind} line has keys {sorted(expected)}, not {sorted(record)}"
            )
        n = record["n"]
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a sample count, not {n!r}")
        probe = probe_cls(name)
        probe.load(*(unpack_column(record[col], n) for col in probe_cls.columns))
    except ValueError as exc:
        raise ValueError(f"channel {name!r}: {exc}") from None
    channels[name] = probe


class TraceReader:
    """Parsed view of one exported telemetry trace."""

    def __init__(self, meta: dict[str, Any], channels: dict[str, Probe]):
        self.meta = meta
        self.channels = channels

    # Construction ------------------------------------------------------------

    @classmethod
    def loads(cls, text: str) -> "TraceReader":
        lines = [
            (number, line)
            for number, line in enumerate(text.splitlines(), 1)
            if line and not line.isspace()
        ]
        if not lines:
            raise ValueError("empty trace")
        meta = parse_header(lines[0][1])
        channels: dict[str, Probe] = {}
        for number, line in lines[1:]:
            try:
                _load_channel(line, channels)
            except ValueError as exc:
                raise ValueError(f"trace line {number}: {exc}") from None
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
