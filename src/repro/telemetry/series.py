"""Array-backed time-series storage and post-processing.

:class:`TimeSeries` is the storage primitive every telemetry channel is
built on.  Samples are held in two parallel ``array('d')`` buffers (one
for times, one for values) rather than a Python list of tuples: half the
pointer overhead, contiguous memory, and cheap slicing for the window
operations the paper's metrics are computed from (loss-rate
stabilization, f(k) utilization, smoothness...).

Interval conventions
--------------------
Counting events (``CounterProbe.count_in``, :meth:`TimeSeries.window`)
uses ``start <= t < end``; a cumulative series is read "as of" a time
(:meth:`TimeSeries.last_before`), so its growth covers ``start < t <= end``.
Either way adjacent windows tile the timeline without double counting.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Iterator, Optional, Sequence

from repro.units import Seconds

__all__ = ["TimeSeries", "check_time_ordered"]


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


class TimeSeries:
    """An append-only series of (time, value) samples, sorted by time.

    Appends must be in non-decreasing time order (the simulator clock is
    monotonic, so this is free).
    """

    __slots__ = ("_times", "_values", "name")

    def __init__(self, name: str = ""):
        self.name = name
        self._times: array = array("d")
        self._values: array = array("d")

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> Sequence[float]:
        return self._times

    @property
    def values(self) -> Sequence[float]:
        return self._values

    def append(self, time: Seconds, value: float) -> None:
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {times[-1]}"
            )
        times.append(time)
        self._values.append(value)

    def window(self, start: Seconds, end: Seconds) -> "TimeSeries":
        """Samples with start <= time < end, as a new series."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        out = TimeSeries(self.name)
        out._times = self._times[lo:hi]
        out._values = self._values[lo:hi]
        return out

    def mean(self) -> float:
        """Unweighted mean of sample values; NaN when empty."""
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    def max(self) -> float:
        return max(self._values) if self._values else math.nan

    def last_before(self, time: Seconds) -> Optional[float]:
        """Value of the latest sample at or before ``time``."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return None
        return self._values[idx]
