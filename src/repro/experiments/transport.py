"""Packed result transport: canonical-JSON payloads in binary frames.

Letting ``ProcessPoolExecutor`` pickle a nested payload dict in the
worker means the coordinator rebuilds it object-by-object and then
*re-serializes* it to canonical JSON for the result cache.  The packed
transport removes the double serialization: the worker encodes the
payload **once**, to the exact canonical-JSON bytes the cache stores
(``json.dumps(value, allow_nan=True, sort_keys=True)``), and ships them
in a small length-prefixed binary frame (stdlib :mod:`struct`, no
msgpack dependency).  The coordinator splices those bytes directly into
the cache record (:meth:`~repro.experiments.cache.ResultCache.store_text`)
and decodes the value with one ``json.loads`` — the same round-trip
``store()`` performs, so results are byte-identical whether a pool
worker or the coordinating process computed them.

Frame layout (little-endian)::

    4s  magic  b"RPK1"
    B   flags  bit 0: a trace section follows the value section
    3x  padding (reserved, zero)
    I   value length in bytes
    I   trace length in bytes (0 when bit 0 of flags is clear)
    ... value: canonical JSON, UTF-8
    ... trace: telemetry JSONL, UTF-8 (only when flagged)

A frame distinguishes "no trace" (flag clear) from "empty trace" (flag
set, zero length), mirroring the ``{"__trace__": ..., "value": ...}``
wrapper :func:`~repro.experiments.jobs.execute_job` returns for traced
jobs.  :class:`PackedResult` is a ``bytes`` subclass so a frame survives
the pool's pickling untouched and the coordinator can recognize packed
payloads by type alone.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Tuple

__all__ = [
    "MAGIC",
    "PackedResult",
    "TransportError",
    "pack_frame",
    "pack_result",
    "unpack_result",
]

#: Frame magic: "Repro PacKed", format 1.  Bump on layout changes.
MAGIC = b"RPK1"

_HEADER = struct.Struct("<4sB3xII")
_FLAG_TRACE = 0x01


class TransportError(ValueError):
    """A packed frame is malformed (bad magic, truncated, wrong length)."""


class PackedResult(bytes):
    """One packed result frame, as produced by :func:`pack_result`.

    Subclassing ``bytes`` keeps pickling trivial (the pool transfers the
    raw buffer) while letting the coordinator distinguish a packed frame
    from an ordinary payload by ``isinstance`` alone.
    """

    __slots__ = ()


def pack_frame(value_text: str, trace_text: Optional[str]) -> PackedResult:
    """Assemble a frame from canonical-JSON ``value_text`` and a trace."""
    value_bytes = value_text.encode("utf-8")
    flags = 0
    trace_bytes = b""
    if trace_text is not None:
        flags |= _FLAG_TRACE
        trace_bytes = trace_text.encode("utf-8")
    header = _HEADER.pack(MAGIC, flags, len(value_bytes), len(trace_bytes))
    return PackedResult(header + value_bytes + trace_bytes)


def pack_result(value: Any, traced: bool = False) -> PackedResult:
    """Encode one job payload (worker side).

    ``value`` is the raw return of
    :func:`~repro.experiments.jobs.execute_job`; when ``traced``, the
    ``{"__trace__": jsonl, "value": payload}`` wrapper is split so the
    trace rides in its own frame section and never pollutes the value
    bytes.  The value is dumped exactly as the result cache would dump
    it — ``sort_keys`` canonical JSON — so the coordinator can splice
    the bytes into a cache record without re-serializing.
    """
    trace_text: Optional[str] = None
    if traced and isinstance(value, dict) and "__trace__" in value:
        trace_text = value["__trace__"]
        value = value["value"]
    value_text = json.dumps(value, allow_nan=True, sort_keys=True)
    return pack_frame(value_text, trace_text)


def unpack_result(frame: bytes) -> Tuple[str, Optional[str]]:
    """Split a frame back into ``(value_text, trace_text_or_None)``."""
    if len(frame) < _HEADER.size:
        raise TransportError(
            f"truncated frame: {len(frame)} bytes < {_HEADER.size}-byte header"
        )
    magic, flags, value_len, trace_len = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise TransportError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    expected = _HEADER.size + value_len + trace_len
    if len(frame) != expected:
        raise TransportError(
            f"frame length mismatch: header promises {expected} bytes, "
            f"got {len(frame)}"
        )
    value_start = _HEADER.size
    trace_start = value_start + value_len
    try:
        value_text = bytes(frame[value_start:trace_start]).decode("utf-8")
        if not flags & _FLAG_TRACE:
            return value_text, None
        trace_text = bytes(frame[trace_start:]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TransportError(f"corrupt frame payload: {exc}") from exc
    return value_text, trace_text
