"""The central recorder: named channels, metadata, JSONL trace export.

A :class:`Recorder` owns a flat namespace of hierarchical channel names
(``link.bottleneck.drops``, ``flow.3.cwnd``) mapping to probes.
Components create their probes privately and hand them over with
:meth:`adopt` — adoption is how pre-existing instrumentation (a sender's
cwnd probe) becomes part of a trace without the component knowing about
recording at all.  A probe holds samples and nothing else, so a recorder
never holds the network it recorded: when a scenario returns, its network
is garbage whether or not it ran under a recorder.

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
from typing import Any, Iterator

from repro.telemetry.probes import Probe, pack_column

__all__ = ["Recorder", "TRACE_SCHEMA_VERSION"]

TRACE_SCHEMA_VERSION = 3


class Recorder:
    """Registry of named telemetry channels for one simulation run."""

    def __init__(self) -> None:
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

    def annotate(self, key: str, value: Any) -> None:
        """Attach run metadata (flow groupings, link bandwidths...)."""
        self.meta[key] = value

    # Export ------------------------------------------------------------------

    def _parts(self) -> Iterator[str]:
        """The JSONL trace in pieces, each packed column a piece of its own.

        A channel line is the ``json.dumps`` of its scalar fields with the
        closing brace dropped, then its columns: the bytes of dumping the
        whole record with sorted keys, because the column names sort after
        ``channel``, ``kind`` and ``n`` (and ``Probe.columns`` is in sorted
        order) and base64 needs no escaping.  No column is copied into a
        line of its own.
        """
        header = {"__telemetry__": TRACE_SCHEMA_VERSION, "meta": self.meta}
        yield json.dumps(header, sort_keys=True) + "\n"
        for channel, probe in self.channels.items():
            scalars = {"channel": channel, "kind": probe.kind, "n": len(probe)}
            yield json.dumps(scalars, sort_keys=True)[:-1]
            for column in probe.columns:
                yield f', "{column}": "'
                yield pack_column(getattr(probe, column))
                yield '"'
            yield "}\n"

    def export_text(self) -> str:
        """Serialize all channels to JSONL (header line + one per channel).

        The packed columns are joined into the text once: the export holds
        about twice the text at its peak, the pieces and the result.
        """
        return "".join(self._parts())
