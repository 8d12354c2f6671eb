"""Typed probe handles: the write-side API of the telemetry plane.

A probe is a small, cheap handle a component holds onto and emits into
whenever something measurable happens.  Probes work standalone (a
dropper counts its drops whether or not anyone is recording) and can be
*adopted* by a :class:`~repro.telemetry.recorder.Recorder` under a
hierarchical channel name, which is what makes them exportable.

Three kinds:

``CounterProbe``
    Timestamped event counts (arrivals, drops, timeouts).
``SeriesProbe``
    Explicit (time, value) samples (cwnd trace, cumulative bytes).
``GaugeProbe``
    A series fed by polling a ``read()`` callable at a sampling cadence
    (queue occupancy).
"""

from __future__ import annotations

import base64
import bisect
import math
import sys
from array import array
from typing import Callable, Iterator, Optional, Sequence

from repro.telemetry.series import TimeSeries, check_time_ordered
from repro.units import Seconds

__all__ = [
    "Probe",
    "CounterProbe",
    "SeriesProbe",
    "GaugeProbe",
    "pack_column",
    "unpack_column",
]

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

    def snapshot(self) -> dict:
        """Channel payload for trace export: kind, sample count, packed columns."""
        record = {"kind": self.kind, "n": len(self)}
        for column in self.columns:
            record[column] = pack_column(getattr(self, column))
        return record


class CounterProbe(Probe):
    """Event counter with per-event timestamps.

    Stores event times in one ``array('d')``: every event counts one, so
    the running total after ``times[i]`` is ``i + 1`` and a windowed count
    is two bisects — no per-event tuple objects — over half-open
    ``[start, end)`` windows, the one interval convention of this package.
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
    """Explicit (time, value) samples, backed by a :class:`TimeSeries`.

    Can wrap an existing series (``SeriesProbe(series=ts)``) so legacy
    structures become recordable channels without copying.
    """

    kind = "series"

    __slots__ = ("series",)

    def __init__(self, name: str = "", series: Optional[TimeSeries] = None):
        super().__init__(name)
        self.series = series if series is not None else TimeSeries(name)

    @property
    def times(self) -> Sequence[float]:
        return self.series.times

    @property
    def values(self) -> Sequence[float]:
        return self.series.values

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.series)

    def record(self, time: Seconds, value: float) -> None:
        # TimeSeries.append, without the extra frame per sample.
        series = self.series
        times = series._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {times[-1]}"
            )
        times.append(time)
        series._values.append(value)

    def load(self, times: array, values: array) -> None:
        """Replace contents from unpacked trace columns (trace replay)."""
        fresh = TimeSeries(self.series.name)
        fresh.extend(times, values)
        self.series = fresh


class GaugeProbe(SeriesProbe):
    """A series fed by sampling a ``read()`` callable.

    The owner (or a :class:`PeriodicTask`) calls :meth:`sample` at the
    recording cadence; each call reads the current value and appends it.
    """

    kind = "gauge"

    __slots__ = ("read",)

    def __init__(
        self, name: str = "", read: Optional[Callable[[], float]] = None
    ):
        super().__init__(name)
        self.read = read

    def sample(self, time: Seconds) -> float:
        if self.read is None:
            raise RuntimeError(f"gauge {self.name!r} has no read() callable")
        value = float(self.read())
        self.record(time, value)
        return value
