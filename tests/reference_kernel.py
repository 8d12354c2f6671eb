"""Frozen pre-overhaul event kernel: the ordering oracle.

A faithful snapshot of the event calendar as it stood *before* the
fast-path overhaul — object-keyed heap, per-sift ``Event.__lt__``
dispatch, an Event allocation for every schedule.  The property tests in
``tests/test_sim_engine_fastpath.py`` drive random schedule / cancel /
timer churn through both kernels and assert the live kernel fires
events in exactly the reference ``(time, seq)`` order.
:class:`ReferenceTimer` is the timer of the same vintage: every
re-schedule cancels the old event and pushes a new one.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

__all__ = ["ReferenceEvent", "ReferenceSimulator", "ReferenceTimer"]


class ReferenceEvent:
    """Pre-overhaul event: ordering via a Python-level ``__lt__``."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[ReferenceSimulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._in_heap = False

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None and self._in_heap:
            self._sim._note_cancelled()

    def __lt__(self, other: "ReferenceEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class ReferenceSimulator:
    """Pre-overhaul kernel: a heap of :class:`ReferenceEvent` objects.

    Every sift inside ``heappush`` / ``heappop`` dispatches to
    ``ReferenceEvent.__lt__`` — a Python function call per comparison —
    which is exactly the overhead the tuple-keyed calendar removed.  The
    public surface matches :class:`repro.sim.engine.Simulator`, so the
    network stack runs on either kernel unchanged.
    """

    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._heap: list[ReferenceEvent] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > self.COMPACT_MIN_CANCELLED
            and self._cancelled > len(self._heap) // 2
        ):
            for event in self._heap:
                if event.cancelled:
                    event._in_heap = False
            self._heap = [event for event in self._heap if not event.cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any):
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s in the past")
        return self.at(self._now + delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any):
        if math.isnan(time):
            raise ValueError("cannot schedule at time NaN")
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}: clock is already at {self._now}"
            )
        event = ReferenceEvent(time, self._seq, fn, args, sim=self)
        event._in_heap = True
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def run(self, until: Optional[float] = None) -> None:
        if self._running:
            raise RuntimeError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            while self._heap and not self._stopped:
                event = self._heap[0]
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                event._in_heap = False
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self._now = event.time
                event.fn(*event.args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        self._stopped = True


class ReferenceTimer:
    """Pre-overhaul one-shot timer: (re)scheduling is cancel + push."""

    def __init__(self, sim: ReferenceSimulator, fn: Callable[[], Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[ReferenceEvent] = None

    @property
    def pending(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        if self.pending:
            assert self._event is not None
            return self._event.time
        return None

    def schedule(self, delay: float) -> None:
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn()
