"""Deterministic and random packet droppers.

Section 4.3 of the paper studies smoothness under *crafted* loss patterns
(e.g. "three losses, each after 50 packet arrivals, followed by three more,
each after 400"), which are imposed on a single flow independent of queue
state.  These droppers sit on a link's delivery path and implement such
patterns.  A Bernoulli dropper is also provided for validating steady-state
response functions against the TCP-friendly equation.

Droppers act on DATA packets only; ACK and feedback packets pass through,
matching the paper's setup where the reverse path is uncongested.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from repro.net.packet import DATA, Packet
from repro.sim.rng import deterministic_default_rng
from repro.telemetry.probes import CounterProbe
from repro.contracts import NonNegSeconds, PositiveSeconds, Probability, checked
from repro.units import Seconds

__all__ = [
    "Dropper",
    "CountBasedDropper",
    "TimedDropper",
    "PeriodicDropper",
    "PhaseDropper",
    "BernoulliDropper",
    "mild_bursty_pattern",
    "severe_bursty_phases",
]


class Dropper:
    """Base class: forwards packets downstream unless :meth:`should_drop`."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._downstream: Optional[Callable[[Packet], None]] = None
        self._clock = clock if clock is not None else lambda: 0.0
        self.dropped = CounterProbe("drops")
        self.passed = 0

    def connect(self, downstream: Callable[[Packet], None]) -> None:
        self._downstream = downstream

    def receive(self, packet: Packet) -> None:
        if self._downstream is None:
            raise RuntimeError("dropper is not connected")
        if packet.kind == DATA and self.should_drop(packet):
            self.dropped.increment(self._clock())
            return
        self.passed += 1
        self._downstream(packet)

    def should_drop(self, packet: Packet) -> bool:
        raise NotImplementedError

    @property
    def drops(self) -> int:
        return self.dropped.count


class CountBasedDropper(Dropper):
    """Drop one packet after each gap in ``gaps`` arrivals, cycling.

    ``gaps = [50, 50, 50, 400, 400, 400]`` reproduces the paper's "mildly
    bursty" Figure 17 pattern: three losses each after 50 arrivals, then
    three each after 400, repeating.
    """

    def __init__(self, gaps: Sequence[int], clock: Optional[Callable[[], float]] = None):
        super().__init__(clock)
        if not gaps or any(g < 1 for g in gaps):
            raise ValueError("gaps must be positive packet counts")
        self._gaps = list(gaps)
        self._gap_index = 0
        self._since_last_drop = 0

    def should_drop(self, packet: Packet) -> bool:
        self._since_last_drop += 1
        if self._since_last_drop > self._gaps[self._gap_index]:
            self._since_last_drop = 0
            self._gap_index = (self._gap_index + 1) % len(self._gaps)
            return True
        return False


class PeriodicDropper(CountBasedDropper):
    """Drop every ``period``-th data packet (steady-state loss rate 1/period)."""

    def __init__(self, period: int, clock: Optional[Callable[[], float]] = None):
        super().__init__([period - 1] if period > 1 else [1], clock)
        if period < 2:
            raise ValueError("period must be at least 2")


class PhaseDropper(Dropper):
    """Cycle through time phases, each dropping every Nth packet.

    ``phases`` is a sequence of ``(duration_s, drop_every_n)`` pairs.  The
    paper's "more bursty" Figure 18 pattern is a 6 s phase dropping every
    200th packet followed by a 1 s phase dropping every 4th.
    """

    def __init__(
        self,
        phases: Sequence[tuple[Seconds, int]],
        clock: Callable[[], float],
    ):
        super().__init__(clock)
        if not phases:
            raise ValueError("need at least one phase")
        for duration, n in phases:
            if duration <= 0 or n < 1:
                raise ValueError("phases need positive duration and drop period")
        self._phases = list(phases)
        self._cycle = sum(duration for duration, _ in phases)
        self._arrivals_in_phase = 0
        self._last_phase_index = 0

    def _phase_index(self, now: float) -> int:
        offset = now % self._cycle
        for index, (duration, _) in enumerate(self._phases):
            if offset < duration:
                return index
            offset -= duration
        return len(self._phases) - 1

    def should_drop(self, packet: Packet) -> bool:
        index = self._phase_index(self._clock())
        if index != self._last_phase_index:
            self._last_phase_index = index
            self._arrivals_in_phase = 0
        self._arrivals_in_phase += 1
        _, period = self._phases[index]
        if self._arrivals_in_phase >= period:
            self._arrivals_in_phase = 0
            return True
        return False


class TimedDropper(Dropper):
    """Drop the first data packet after each ``interval`` of time.

    With ``interval`` equal to one RTT this produces the paper's
    *persistent congestion* pattern — "the loss of one packet per
    round-trip time" — used to define the responsiveness metric.
    ``start_at`` delays the onset so a flow can reach steady state first.
    """

    @checked
    def __init__(
        self,
        interval_s: PositiveSeconds,
        clock: Callable[[], float],
        start_at: NonNegSeconds = 0.0,
    ):
        super().__init__(clock)
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.interval_s = interval_s
        self.start_at = start_at
        self._next_drop_after = start_at

    def should_drop(self, packet: Packet) -> bool:
        now = self._clock()
        if now >= self._next_drop_after:
            # Schedule the next drop one interval after this one.
            self._next_drop_after = now + self.interval_s
            return True
        return False


class BernoulliDropper(Dropper):
    """Drop each data packet independently with probability ``p``."""

    @checked
    def __init__(
        self,
        p: Probability,
        rng: Optional[random.Random] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        super().__init__(clock)
        if not 0 <= p < 1:
            raise ValueError("p must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else deterministic_default_rng()

    def should_drop(self, packet: Packet) -> bool:
        return self._rng.random() < self.p


def mild_bursty_pattern() -> list[int]:
    """Figure 17 / 19 gap pattern."""
    return [50, 50, 50, 400, 400, 400]


def severe_bursty_phases() -> list[tuple[float, int]]:
    """Figure 18 phases: 6 s of 1-in-200 loss, then 1 s of 1-in-4 loss."""
    return [(6.0, 200), (1.0, 4)]
