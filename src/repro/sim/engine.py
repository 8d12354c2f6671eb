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
The calendar stores uniform ``(time, seq, fn, args)`` tuples rather than
bare :class:`Event` objects.  Heap sifts then compare C-level floats and
ints instead of dispatching to a Python ``__lt__`` per comparison, and
the run loop unpacks every entry the same way.  The heap is the only
container: ``(time, seq)`` is a total order, so one calendar fixes the
firing order, same-time events included.  Three further fast paths,
checked for firing order against the frozen pre-overhaul kernel in
``tests/reference_kernel.py``:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_in` are
  fire-and-forget variants of :meth:`at` / :meth:`schedule` for callers
  that never cancel (per-packet link events, which dominate every
  simulation): they push ``(time, seq, fn, args)`` and skip the
  :class:`Event` allocation and the cancellation bookkeeping entirely.
  A cancellable event rides the same shape as ``(time, seq, None,
  event)``.  Sequence numbers come from the same counter, so mixing the
  two APIs preserves the global FIFO tie-break.
* ``now`` is a plain attribute, not a property: the clock is read on
  every queue arrival, packet construction and probe sample, and an
  attribute load is several times cheaper than a descriptor call.  It
  is written by the kernel only; assigning it from outside the kernel
  is not supported (tests that need a fake clock may do so explicitly).
* :class:`Timer` pushes its deadline back with a field write (a TCP
  sender restarts its RTO on every ACK) instead of a cancel and a push.
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
    is lazy: the calendar entry stays in place and is discarded when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

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
        # The calendar this event sits in; None once it has been popped,
        # so a late cancel() cannot count a tombstone that is not there.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._cancelled += 1

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

    def __init__(self) -> None:
        # Calendar entries are (time, seq, fn, args) for fire-and-forget
        # call_at/call_in entries and (time, seq, None, event) for
        # cancellable events.  seq is unique, so sifts compare floats and
        # ints only and never reach the third element.
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

        O(1): :meth:`Event.cancel` counts the tombstones it leaves in the
        calendar and the run loop uncounts them as it discards them.
        """
        return len(self._heap) - self._cancelled

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
        event = Event(time, seq, fn, args, self)
        _heappush(self._heap, (time, seq, None, event))
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
        event = Event(time, seq, fn, args, self)
        _heappush(self._heap, (time, seq, None, event))
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
        horizon = math.inf if until is None else until
        fired = 0
        try:
            while heap and not self._stopped:
                entry = heappop(heap)
                time, _, fn, args = entry
                if time > horizon:
                    # The one event past ``until``: same (time, seq), same place.
                    _heappush(heap, entry)
                    break
                if fn is None:
                    # Cancellable entry: ``args`` is the Event itself.
                    if args.cancelled:
                        self._cancelled -= 1
                        continue
                    args._sim = None
                    fn = args.fn
                    args = args.args
                self.now = time
                fired += 1
                fn(*args)
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

    A timer wraps a callback and manages the single outstanding deadline
    for it: (re)scheduling replaces any previous one.  Pushing the
    deadline *back* — what a retransmission timer does on every ACK —
    writes a field: the calendar entry already in place fires at the old
    time, finds the later deadline and re-arms once.  Pulling it forward
    and :meth:`cancel` cancel the entry for real, so a cancelled timer
    never keeps a draining calendar alive.
    """

    __slots__ = ("_sim", "_fn", "_event", "_at", "_deadline")

    def __init__(self, sim: Simulator, fn: Callable[[], Any]):
        self._sim = sim
        self._fn = fn
        self._event: Optional[Event] = None  # calendar entry; None = disarmed
        self._at = 0.0  # when that entry fires
        self._deadline = 0.0  # when the callback is due: >= _at

    @property
    def pending(self) -> bool:
        """Whether the timer is armed."""
        return self._event is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time the timer will fire, or None if not armed."""
        return self._deadline if self._event is not None else None

    def schedule(self, delay: NonNegSeconds) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        sim = self._sim
        deadline = sim.now + delay
        event = self._event
        if event is not None:
            if deadline >= self._at:
                self._deadline = deadline
                return
            event.cancel()
            self._event = None
        # ``at`` rejects a negative delay (deadline before now) and NaN.
        self._event = sim.at(deadline, self._fire)
        self._at = self._deadline = deadline

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None

    def _fire(self) -> None:
        deadline = self._deadline
        if deadline > self._at:
            # Pushed back since this entry was made: re-arm at the deadline.
            self._event = self._sim.at(deadline, self._fire)
            self._at = deadline
            return
        self._event = None
        self._fn()
