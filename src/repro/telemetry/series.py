"""Array-backed time-series storage and post-processing.

:class:`TimeSeries` is the storage primitive every telemetry channel is
built on.  Samples are held in two parallel ``array('d')`` buffers (one
for times, one for values) rather than a Python list of tuples: half the
pointer overhead, contiguous memory, and cheap slicing for the window
operations the paper's metrics are computed from (loss-rate
stabilization, f(k) utilization, smoothness...).

Interval conventions
--------------------
Every windowed operation in this package uses the half-open convention
``start <= t < end``, so adjacent windows tile the timeline without
double-counting boundary events.
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Iterable, Iterator, Optional, Sequence

from repro.units import Seconds

__all__ = ["TimeSeries", "check_time_ordered"]


def check_time_ordered(times: array) -> None:
    """Raise ``ValueError`` unless ``times`` never goes backwards.

    One C-level sort of an already-sorted list; the Python loop runs only
    to name the offending pair.
    """
    ordered = times.tolist()
    if ordered != sorted(ordered):
        for i in range(1, len(ordered)):
            if ordered[i] < ordered[i - 1]:
                raise ValueError(
                    f"samples must be time-ordered: {ordered[i]} < {ordered[i - 1]}"
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

    def extend(self, times: Iterable[float], values: Iterable[float]) -> None:
        """Bulk-append pre-ordered samples (used when loading traces).

        Ordering is validated once over the whole input, then both buffers
        grow through a single C-level ``array.extend`` — no per-sample
        Python ``append`` (with its comparison) in the loop, which is what
        used to dominate trace-replay load time.  Unordered input raises
        ``ValueError`` *before* anything is appended, so a failed extend
        leaves the series untouched.
        """
        new_times = array("d", times)
        new_values = array("d", values)
        # zip() semantics: the shorter input decides how much is appended.
        n = min(len(new_times), len(new_values))
        del new_times[n:], new_values[n:]
        if not n:
            return
        if self._times and new_times[0] < self._times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {new_times[0]} < {self._times[-1]}"
            )
        check_time_ordered(new_times)
        self._times.extend(new_times)
        self._values.extend(new_values)

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

    def resample(self, period: Seconds, start: Seconds, end: Seconds) -> "TimeSeries":
        """Step-function resampling at a fixed period (sample-and-hold).

        Sample times are computed as ``start + i * period`` by integer
        index rather than by accumulating ``t += period``, so rounding
        error cannot drift the grid over long runs.
        """
        out = TimeSeries(self.name)
        i = 0
        while True:
            t = start + i * period
            if t >= end:
                break
            value = self.last_before(t)
            if value is not None:
                out.append(t, value)
            i += 1
        return out
