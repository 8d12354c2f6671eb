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
The calendar stores one entry shape, ``(time, seq, fn, args)``, and has
one scheduling call, :meth:`Simulator.at`.  Heap sifts compare C-level
floats and ints instead of dispatching to a Python ``__lt__`` per
comparison, and the run loop unpacks every entry the same way and calls
it: an entry, once pushed, always fires.  The heap is the only container:
``(time, seq)`` is a total order, so one calendar fixes the firing order,
same-time events included.  Checked for firing order against the frozen
pre-overhaul kernel in ``tests/reference_kernel.py``:

* ``now`` is a plain attribute, not a property: the clock is read on
  every queue arrival, packet construction and probe sample, and an
  attribute load is several times cheaper than a descriptor call.  It
  is written by the kernel only; assigning it from outside the kernel
  is not supported (tests that need a fake clock may do so explicitly).
* :class:`Timer` is the one thing that cancels.  It pushes its deadline
  back with a field write (a TCP sender restarts its RTO on every ACK);
  pulling it forward or cancelling *retires* its entry, which still
  fires and returns at once.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.contracts import NonNegSeconds

__all__ = [
    "Simulator",
    "Timer",
    "SimulationError",
    "fired_in_process",
    "simulated_ns_in_process",
]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Entries fired by every :class:`Simulator` of this process, added once
#: per ``run`` call (never per event).
_fired_in_process = 0

#: Simulated time every :class:`Simulator` of this process has advanced
#: its clock by, in whole nanoseconds, added once per ``run`` call: an
#: int, so the difference over one job does not depend on what the
#: process simulated before it.
_simulated_ns_in_process = 0


def fired_in_process() -> int:
    """How many calendar entries every simulator in this process has fired."""
    return _fired_in_process


def simulated_ns_in_process() -> int:
    """How many simulated nanoseconds every simulator in this process has run."""
    return _simulated_ns_in_process


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Simulator:
    """An event-driven simulation clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.at(1.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (1.5, ['hello'])
    """

    def __init__(self) -> None:
        # Calendar entries are (time, seq, fn, args).  seq is unique, so
        # sifts compare floats and ints only and never reach ``fn``.
        self._heap: list[tuple] = []
        #: Current simulated time in seconds (kernel-written; read-only
        #: for everyone else).
        self.now = 0.0
        self._seq = 0
        self._running = False
        self.events_fired = 0  # lifetime count of entries popped and called

    def at(self, time: NonNegSeconds, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute time ``time``.

        Fire-and-forget: nothing is returned and the entry cannot be
        cancelled (a :class:`Timer` can be).  A delay ``d`` from now is
        ``at(sim.now + d, ...)``.
        """
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
        _heappush(self._heap, (time, seq, fn, args))

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the calendar drains or ``until`` is hit.

        When ``until`` is given, the clock is advanced exactly to ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        observe a monotonic clock.  Events scheduled at exactly ``until`` do
        fire.  Without ``until`` the clock stops at the last entry popped,
        which may be a retired timer entry.
        """
        global _fired_in_process, _simulated_ns_in_process
        if self._running:
            raise SimulationError("simulator is already running")
        horizon = math.inf if until is None else until
        if math.isnan(horizon):
            raise SimulationError("cannot run until time NaN")
        self._running = True
        started = self.now
        heap = self._heap
        heappop = _heappop
        fired = 0
        try:
            while heap:
                entry = heappop(heap)
                time, _, fn, args = entry
                if time > horizon:
                    # The one entry past ``until``: same (time, seq), same place.
                    _heappush(heap, entry)
                    break
                self.now = time
                fired += 1
                fn(*args)
            if until is not None and self.now < until:
                self.now = until
        finally:
            _fired_in_process += fired
            _simulated_ns_in_process += round((self.now - started) * 1e9)
            self.events_fired += fired
            self._running = False


class Timer:
    """A restartable one-shot timer, e.g. a TCP retransmission timer.

    A timer wraps a callback and manages the single outstanding deadline
    for it: (re)scheduling replaces any previous one.  Pushing the
    deadline *back* — what a retransmission timer does on every ACK —
    writes a field: the calendar entry already in place fires at the old
    time, finds the later deadline and re-arms once.  Pulling it forward
    and :meth:`cancel` *retire* the entry: every entry carries the token
    the timer held when it was pushed, retiring one moves the token on,
    and an entry whose token is not the timer's returns as it fires.
    Staleness is the token's, not the time's, so a timer re-armed at a
    retired entry's very time fires at its new entry's place.
    """

    __slots__ = ("_sim", "_fn", "_token", "_armed", "_at", "_deadline")

    def __init__(self, sim: Simulator, fn: Callable[[], Any]):
        self._sim = sim
        self._fn = fn
        self._token = 0  # the live entry's; retired entries carry older ones
        self._armed = False
        self._at = 0.0  # when the live entry fires
        self._deadline = 0.0  # when the callback is due: >= _at

    @property
    def pending(self) -> bool:
        """Whether the timer is armed."""
        return self._armed

    def schedule(self, delay: NonNegSeconds) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        sim = self._sim
        deadline = sim.now + delay
        if not self._armed:
            sim.at(deadline, self._fire, self._token)
            self._armed = True
        elif deadline >= self._at:
            self._deadline = deadline
            return
        else:
            # ``at`` rejects a negative delay and NaN before anything is
            # retired, so a rejected deadline leaves the timer as it was.
            sim.at(deadline, self._fire, self._token + 1)
            self._token += 1
        self._at = self._deadline = deadline

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._armed:
            self._armed = False
            self._token += 1

    def _fire(self, token: int) -> None:
        if token != self._token:
            return  # retired
        deadline = self._deadline
        if deadline > self._at:
            # Pushed back since this entry was made: re-arm at the deadline.
            self._sim.at(deadline, self._fire, token)
            self._at = deadline
            return
        self._armed = False
        self._fn()
