"""The central recorder: named channels, metadata, JSONL trace export.

A :class:`Recorder` owns a flat namespace of hierarchical channel names
(``link.bottleneck.drops``, ``flow.3.cwnd``) mapping to probes.
Components either ask the recorder for a probe (:meth:`counter`,
:meth:`series`, :meth:`gauge`) or create probes privately and hand them
over with :meth:`adopt` — adoption is how pre-existing instrumentation
(a sender's cwnd probe) becomes part of a trace without the component
knowing about recording at all.

Traces are exported as JSONL: a header line carrying schema version and
run metadata, then one line per channel — its name, kind, sample count
``n`` and each column as the base64 of its little-endian float64 buffer
(:func:`~repro.telemetry.probes.pack_column`), so exporting costs a copy
of the samples, not a ``repr`` per double.  The format stays
line-oriented, so channel names can be grepped and lines streamed; the
samples are read with ``repro trace FIG --job N --channel NAME``.  See
``docs/telemetry.md``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Optional, Union

from repro.telemetry.probes import CounterProbe, GaugeProbe, Probe, SeriesProbe
from repro.units import Seconds

__all__ = ["Recorder", "TRACE_SCHEMA_VERSION"]

TRACE_SCHEMA_VERSION = 2

#: Default sampling period for gauges when the caller does not specify one.
DEFAULT_CADENCE_S = 0.1


class Recorder:
    """Registry of named telemetry channels for one simulation run."""

    def __init__(self, cadence_s: Seconds = DEFAULT_CADENCE_S):
        self.cadence_s = float(cadence_s)
        self.channels: dict[str, Probe] = {}
        self.meta: dict[str, Any] = {}

    # Channel management ------------------------------------------------------

    def adopt(self, channel: str, probe: Probe) -> Probe:
        """Register an existing probe under ``channel``.

        Idempotent for the same probe object; adopting a *different*
        probe under an existing name is an error (two components would
        silently shadow each other's measurements).
        """
        existing = self.channels.get(channel)
        if existing is not None:
            if existing is probe:
                return probe
            raise ValueError(f"channel {channel!r} already has a probe")
        self.channels[channel] = probe
        return probe

    def counter(self, channel: str) -> CounterProbe:
        """Create-or-get a counter channel."""
        probe = self.channels.get(channel)
        if probe is None:
            probe = CounterProbe(channel)
            self.channels[channel] = probe
        if not isinstance(probe, CounterProbe):
            raise TypeError(f"channel {channel!r} is {probe.kind}, not counter")
        return probe

    def series(self, channel: str) -> SeriesProbe:
        """Create-or-get a series channel."""
        probe = self.channels.get(channel)
        if probe is None:
            probe = SeriesProbe(channel)
            self.channels[channel] = probe
        if not isinstance(probe, SeriesProbe):
            raise TypeError(f"channel {channel!r} is {probe.kind}, not series")
        return probe

    def gauge(
        self, channel: str, read: Optional[Callable[[], float]] = None
    ) -> GaugeProbe:
        """Create-or-get a gauge channel, optionally binding its read()."""
        probe = self.channels.get(channel)
        if probe is None:
            probe = GaugeProbe(channel, read=read)
            self.channels[channel] = probe
        if not isinstance(probe, GaugeProbe):
            raise TypeError(f"channel {channel!r} is {probe.kind}, not gauge")
        if read is not None:
            probe.read = read
        return probe

    def annotate(self, key: str, value: Any) -> None:
        """Attach run metadata (flow groupings, link bandwidths...)."""
        self.meta[key] = value

    # Export ------------------------------------------------------------------

    def export_text(self) -> str:
        """Serialize all channels to JSONL (header line + one per channel)."""
        header = {
            "__telemetry__": TRACE_SCHEMA_VERSION,
            "meta": self.meta,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for channel, probe in self.channels.items():
            record = {"channel": channel}
            record.update(probe.snapshot())
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + "\n"

    def export(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the JSONL trace to ``path``."""
        target = pathlib.Path(path)
        target.write_text(self.export_text(), encoding="utf-8")
        return target
