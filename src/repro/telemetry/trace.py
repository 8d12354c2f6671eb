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
import re
from typing import Any, Iterator

from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.telemetry.probes import CounterProbe, Probe, SeriesProbe, unpack_column
from repro.telemetry.recorder import TRACE_SCHEMA_VERSION

__all__ = ["TraceReader", "parse_header"]

_PROBE_KINDS = {"counter": CounterProbe, "series": SeriesProbe}

_FLOW_BYTES = re.compile(r"^flow\.(\d+)\.bytes$")


#: The line boundaries ``str.splitlines()`` knows besides "\n" (one
#: ``str.find`` each is a C scan; a regex class reads a character at a time).
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lines_of(source: str, start: int, end: int) -> Iterator[str]:
    r"""``source[start:end].splitlines()``, for a span holding no "\n" but
    possibly a last one: one copy, the line, unless the span holds another
    boundary (a "\r" or a form feed, say), which no export writes."""
    stop = end - 1 if end > start and source[end - 1] == "\n" else end
    if any(source.find(mark, start, stop) >= 0 for mark in _OTHER_BREAKS):
        yield from source[start:end].splitlines()
    else:
        yield source[start:stop]


def _text_lines(text: str) -> Iterator[str]:
    r"""``text.splitlines()``, a line at a time.

    A split after every "\n" never parts a boundary ("\r\n" included),
    so the lines of the spans are the lines of the text.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        yield from _lines_of(text, start, end)
        start = end


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
        """Parse a trace held as one string, a line at a time.

        Each line is copied out of ``text`` on its own, never the whole
        text at once, and each decoded column is kept as it is.
        """
        return cls._read(_text_lines(text))

    @classmethod
    def _read(cls, lines: Iterator[str]) -> "TraceReader":
        """Numbered as ``str.splitlines()`` numbers them; blank lines skipped."""
        numbered = (
            (number, line)
            for number, line in enumerate(lines, 1)
            if line and not line.isspace()
        )
        first = next(numbered, None)
        if first is None:
            raise ValueError("empty trace")
        meta = parse_header(first[1])
        channels: dict[str, Probe] = {}
        for number, line in numbered:
            try:
                _load_channel(line, channels)
            except ValueError as exc:
                raise ValueError(f"trace line {number}: {exc}") from None
        return cls(meta, channels)

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
        return metrics

    def flows(self) -> FlowMetrics:
        """Rebuild per-flow accounting from ``flow.<id>.bytes`` channels."""
        metrics = FlowMetrics()
        for name, probe in self.channels.items():
            match = _FLOW_BYTES.match(name)
            if match and isinstance(probe, SeriesProbe):
                metrics._probes[int(match.group(1))] = probe
        return metrics
