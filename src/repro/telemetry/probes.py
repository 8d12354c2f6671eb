"""Typed probe handles: the write-side API of the telemetry plane.

A probe is a small, cheap handle a component holds onto and emits into
whenever something measurable happens, and a column store with no
other job: it holds samples, never a callable or a component.  Probes
work standalone (a dropper counts its drops whether or not anyone is
recording) and can be *adopted* by a
:class:`~repro.telemetry.recorder.Recorder` under a hierarchical channel
name, which is what makes them exportable.

Two kinds:

``CounterProbe``
    Timestamped event counts (arrivals, drops, timeouts).
``SeriesProbe``
    (time, value) samples (cwnd, sending rate, cumulative bytes, queue
    occupancy), recorded by their owner.

Interval conventions
--------------------
Counting events (:meth:`CounterProbe.count_in`, :meth:`SeriesProbe.window`)
uses ``start <= t < end``; a cumulative series is read "as of" a time
(:meth:`SeriesProbe.last_before`), so its growth covers ``start < t <= end``.
Either way adjacent windows tile the timeline without double counting.
"""

from __future__ import annotations

import base64
import bisect
import math
import sys
from array import array
from typing import Iterator, Optional, Sequence

from repro.units import Seconds

__all__ = [
    "Probe",
    "CounterProbe",
    "SeriesProbe",
    "check_time_ordered",
    "pack_column",
    "unpack_column",
]

#: Samples per ``tolist()`` in :func:`check_time_ordered`: about 130 kB
#: of Python floats at a time, never one per sample of the whole column.
_ORDER_CHUNK = 4096


def check_time_ordered(times: array) -> None:
    """Raise ``ValueError`` unless ``times`` never goes backwards.

    One C-level sort of an already-sorted list per chunk (each chunk
    repeats its predecessor's last time, so no pair is skipped); the
    Python loop runs only to name the offending pair.
    """
    for lo in range(0, len(times), _ORDER_CHUNK):
        chunk = times[max(lo - 1, 0) : lo + _ORDER_CHUNK].tolist()
        if chunk != sorted(chunk):
            for i in range(1, len(chunk)):
                if chunk[i] < chunk[i - 1]:
                    raise ValueError(
                        f"samples must be time-ordered: {chunk[i]} < {chunk[i - 1]}"
                    )


#: A column is little-endian float64 on disk whatever the host is.
_SWAP = sys.byteorder == "big"


def pack_column(column: array) -> str:
    """Base64 of ``column``'s little-endian float64 buffer (the trace form).

    The buffer *is* the doubles, so every bit pattern — NaN payloads,
    ``-0.0``, subnormals, infinities — survives the round trip.
    """
    if _SWAP:
        column = array("d", column)
        column.byteswap()
    return base64.b64encode(column).decode("ascii")


def unpack_column(text: object, n: int) -> array:
    """The ``n`` doubles :func:`pack_column` packed; ``ValueError`` otherwise."""
    if not isinstance(text, str):
        raise ValueError(
            f"a column is a base64 string, not {type(text).__name__}"
        )
    raw = base64.b64decode(text, validate=True)  # binascii.Error is a ValueError
    column = array("d")
    if len(raw) != n * column.itemsize:
        raise ValueError(
            f"column holds {len(raw)} bytes, n = {n} needs {n * column.itemsize}"
        )
    column.frombytes(raw)
    if _SWAP:
        column.byteswap()
    return column


class Probe:
    """Base class for telemetry channels; defines the export surface."""

    kind: str = ""
    #: The exported columns, in :meth:`load` argument order.
    columns: tuple[str, ...] = ("times", "values")

    __slots__ = ("name",)

    def __init__(self, name: str = ""):
        self.name = name

    @property
    def times(self) -> Sequence[float]:
        raise NotImplementedError

    @property
    def values(self) -> Sequence[float]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.times)


class CounterProbe(Probe):
    """A counter of events, with per-event timestamps.

    Stores event times in one ``array('d')``: every event counts one, so
    the running total after ``times[i]`` is ``i + 1`` and a windowed count
    is two bisects — no per-event tuple objects — over half-open
    ``[start, end)`` windows, the convention of every counter here.
    """

    kind = "counter"
    columns = ("times",)

    __slots__ = ("_times", "_last_time")

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._times: array = array("d")
        # Hot-path cache: increment() fires once per packet event, so the
        # last timestamp is a plain attribute, not a read of the array tail.
        self._last_time = -math.inf

    @property
    def times(self) -> Sequence[float]:
        return self._times

    @property
    def values(self) -> Sequence[float]:
        """The running totals ``1.0 .. n``, synthesised on read (never stored)."""
        return array("d", range(1, len(self._times) + 1))

    @property
    def count(self) -> int:
        return len(self._times)

    def increment(self, time: Seconds) -> None:
        """Count one event at ``time`` (times must not go backwards)."""
        if time < self._last_time:
            raise ValueError(
                f"events must be time-ordered: {time} < {self._last_time}"
            )
        self._last_time = time
        self._times.append(time)

    def count_in(self, start: Seconds, end: Seconds) -> int:
        """Events counted over the half-open window [start, end)."""
        times = self._times
        return bisect.bisect_left(times, end) - bisect.bisect_left(times, start)

    def load(self, times: array) -> None:
        """Replace contents from an unpacked trace column (trace replay)."""
        check_time_ordered(times)  # count_in() bisects
        self._times = times
        self._last_time = times[-1] if times else -math.inf


class SeriesProbe(Probe):
    """Explicit (time, value) samples, sorted by time.

    Held in two parallel ``array('d')`` columns rather than a list of
    tuples: half the pointer overhead, contiguous memory, and cheap
    slicing for the windowed reads the paper's metrics are computed from.
    Samples must be recorded in non-decreasing time order (the simulator
    clock is monotonic, so this is free).
    """

    kind = "series"

    __slots__ = ("_times", "_values")

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._times: array = array("d")
        self._values: array = array("d")

    @property
    def times(self) -> Sequence[float]:
        return self._times

    @property
    def values(self) -> Sequence[float]:
        return self._values

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def record(self, time: Seconds, value: float) -> None:
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {times[-1]}"
            )
        times.append(time)
        self._values.append(value)

    def window(self, start: Seconds, end: Seconds) -> "SeriesProbe":
        """Samples with start <= time < end, as a new series."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        out = SeriesProbe(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def mean(self) -> float:
        """Unweighted mean of sample values; NaN when empty."""
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    def last_before(self, time: Seconds) -> Optional[float]:
        """Value of the latest sample at or before ``time``."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return None
        return self._values[idx]

    def load(self, times: array, values: array) -> None:
        """Replace contents from unpacked trace columns (trace replay).

        The series keeps the two arrays it is handed, as
        :meth:`CounterProbe.load` keeps its one: a loaded trace holds each
        decoded column once.
        """
        if len(times) != len(values):
            raise ValueError(f"{len(times)} times but {len(values)} values")
        check_time_ordered(times)
        self._times, self._values = times, values
