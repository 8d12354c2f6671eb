"""Discrete-event simulation kernel.

The kernel is a classic calendar of timestamped events backed by a binary
heap.  All network components in :mod:`repro.net` and all congestion-control
agents in :mod:`repro.cc` schedule their work through a single
:class:`Simulator` instance, which guarantees a global, deterministic event
order: events fire in timestamp order, with insertion order breaking ties.

Nothing here knows about packets or links; the kernel only moves simulated
time forward and invokes callbacks.

Fast path
---------
The calendar stores ``(time, seq, ...)`` tuples rather than bare
:class:`Event` objects.  Heap sifts then compare C-level floats and ints
instead of dispatching to a Python ``Event.__lt__`` per comparison — on a
calendar of a few hundred events that removes five to ten Python calls
from every push and pop, which is most of what the kernel does per
packet.  The heap is the only container: ``(time, seq)`` is a total
order, so one calendar fixes the firing order, same-time events
included (real figure jobs schedule at most one event per job at
exactly ``now`` — see the traffic audit in ``docs/performance.md``).
Two further fast paths, both checked for firing order against the
frozen pre-overhaul kernel in ``tests/reference_kernel.py``:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_in` are
  fire-and-forget variants of :meth:`at` / :meth:`schedule` for callers
  that never cancel (per-packet link events, which dominate every
  simulation): they push a bare ``(time, seq, fn, args)`` entry and skip
  the :class:`Event` allocation and the cancellation bookkeeping
  entirely.  Sequence numbers come from the same counter, so mixing the
  two APIs preserves the global FIFO tie-break.
* ``now`` is a plain attribute, not a property: the clock is read on
  every queue arrival, packet construction and probe sample, and an
  attribute load is several times cheaper than a descriptor call.  It
  is written by the kernel only; assigning it from outside the kernel
  is not supported (tests that need a fake clock may do so explicitly).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.contracts import NonNegSeconds

__all__ = ["Event", "Simulator", "Timer", "SimulationError"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and can be cancelled before they fire.  Cancellation
    is lazy: the calendar entry stays in place and is discarded when popped
    (or swept out wholesale when cancelled entries dominate the calendar —
    see :meth:`Simulator._note_cancelled`).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim", "_in_heap")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._in_heap = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None and self._in_heap:
            self._sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        # Kept for callers that sort events; the calendar itself compares
        # (time, seq) tuples and never reaches this method.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} fn={getattr(self.fn, '__qualname__', self.fn)} {state}>"


class Simulator:
    """An event-driven simulation clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    #: Compaction only kicks in above this many cancelled entries, so tiny
    #: calendars never pay the heapify cost.  128 (not 64) because the
    #: sweep is O(calendar): below ~a hundred tombstones, lazy pop-time
    #: discard is measurably cheaper than even one rebuild.
    COMPACT_MIN_CANCELLED = 128

    def __init__(self) -> None:
        # Calendar entries are (time, seq, event) for cancellable events
        # and (time, seq, fn, args) for fire-and-forget call_at/call_in
        # entries.  seq is unique, so sifts compare floats and ints only
        # and never reach the third element.
        self._heap: list[tuple] = []
        #: Current simulated time in seconds (kernel-written; read-only
        #: for everyone else).
        self.now = 0.0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0  # cancelled events still sitting in the calendar
        self.events_fired = 0  # lifetime count of callbacks invoked

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, not-cancelled) events.

        O(1): the kernel tracks how many calendar entries are cancelled-
        but-not-yet-popped instead of scanning the calendar.
        """
        return len(self._heap) - self._cancelled

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        Counts the tombstone and, when more than half the calendar (and at
        least :data:`COMPACT_MIN_CANCELLED` entries) is dead weight, sweeps
        the calendar: filtering preserves correctness because ``(time, seq)``
        is a total order, so ``heapify`` rebuilds the exact same event
        ordering without the tombstones.  Fire-and-forget 4-tuple entries
        cannot be cancelled and always survive the sweep.

        One exception: when the entry at the heap *top* is itself a
        tombstone, the sweep is skipped.  The run loop pops and discards
        top tombstones for free (no callback, counter decrement only), so
        a cancellation storm aimed at the earliest events drains lazily
        at pop time instead of paying an O(calendar) rebuild — the sweep
        then fires on the first cancellation after the top turns live.
        """
        self._cancelled += 1
        heap = self._heap
        if (
            self._cancelled > self.COMPACT_MIN_CANCELLED
            and self._cancelled > len(heap) // 2
        ):
            if heap and len(heap[0]) == 3 and heap[0][2].cancelled:
                return
            # The sweep is in place (slice-assign): the run loop holds a
            # direct reference to the heap, and a cancellation storm
            # inside a callback must compact the very calendar the loop
            # is draining.  Swept tombstones keep their ``_in_heap``
            # flag: the only reader is ``Event.cancel``, which
            # early-returns on ``cancelled`` before ever looking at the
            # flag, so clearing it here would be a second full pass of
            # pure dead work.
            heap[:] = [
                entry
                for entry in heap
                if len(entry) == 4 or not entry[2].cancelled
            ]
            heapq.heapify(heap)
            self._cancelled = 0

    def schedule(self, delay: NonNegSeconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        now = self.now
        time = now + delay
        if not time >= now:  # only NaN survives the delay check (cold)
            raise SimulationError("cannot schedule at time NaN")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, sim=self)
        event._in_heap = True
        _heappush(self._heap, (time, seq, event))
        return event

    def at(self, time: NonNegSeconds, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute time ``time``."""
        now = self.now
        if not time >= now:
            # NaN fails every comparison, so both misuse cases land here.
            if math.isnan(time):
                raise SimulationError("cannot schedule at time NaN")
            raise SimulationError(
                f"cannot schedule at {time}: clock is already at {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, sim=self)
        event._in_heap = True
        _heappush(self._heap, (time, seq, event))
        return event

    def call_in(self, delay: NonNegSeconds, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` is built.

        For hot callers that never cancel (per-packet link events).  The
        callback cannot be cancelled or observed; in exchange the kernel
        skips the Event allocation and cancellation bookkeeping.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        now = self.now
        time = now + delay
        if not time >= now:  # only NaN survives the delay check (cold)
            raise SimulationError("cannot schedule at time NaN")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, fn, args))

    def call_at(self, time: NonNegSeconds, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`at` (see :meth:`call_in`)."""
        now = self.now
        if not time >= now:
            if math.isnan(time):
                raise SimulationError("cannot schedule at time NaN")
            raise SimulationError(
                f"cannot schedule at {time}: clock is already at {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, fn, args))

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the calendar drains or ``until`` is hit.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        observe a monotonic clock.  Events scheduled at exactly ``until`` do
        fire.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = _heappop
        fired = 0
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    break
                entry = heappop(heap)
                if len(entry) == 4:
                    # Fire-and-forget entry: nothing to cancel, no Event.
                    self.now = entry[0]
                    fired += 1
                    entry[2](*entry[3])
                    continue
                event = entry[2]
                event._in_heap = False
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = entry[0]
                fired += 1
                event.fn(*event.args)
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self.events_fired += fired
            self._running = False

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True


class Timer:
    """A restartable one-shot timer, e.g. a TCP retransmission timer.

    A timer wraps a callback and manages the single outstanding event for it:
    (re)scheduling cancels any previous schedule.
    """

    def __init__(self, sim: Simulator, fn: Callable[[], Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """Whether the timer is armed."""
        return self._event is not None and not self._event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not armed."""
        if self.pending:
            assert self._event is not None
            return self._event.time
        return None

    def schedule(self, delay: NonNegSeconds) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._fn()
