"""Constant-bit-rate sources and the paper's ON/OFF schedules.

The dynamic scenarios of Sections 4.1 and 4.2 orchestrate the available
bandwidth with an unresponsive CBR source switched on and off: a square
wave with equal ON and OFF times, and the one-shot stop-restart pattern of
the Figure 3 experiment.
"""

from __future__ import annotations

from typing import Sequence

from repro.cc.base import Receiver, Sender
from repro.net.packet import DATA, Packet
from repro.sim.engine import Simulator, Timer
from repro.units import BitsPerSecond, Seconds

__all__ = ["CbrSource", "CbrSink", "square_wave", "on_off_schedule"]


class CbrSource(Sender):
    """Unresponsive constant-bit-rate source of 1000-byte packets."""

    #: Longest pause between pacing ticks, in seconds: below 400 kb/s a
    #: packet takes longer than this to earn, and the extra ticks set
    #: when it leaves.
    MAX_TICK = 0.02

    def __init__(self, sim: Simulator, rate_bps: BitsPerSecond):
        super().__init__(sim)
        if rate_bps <= 0:
            raise ValueError("CBR rate must be positive")
        self.rate_bps = rate_bps
        self._timer = Timer(sim, self._tick)
        self._seq = 0
        self._credit_bits = 0.0
        self._last_update = 0.0

    def _begin(self) -> None:
        self._credit_bits = self.packet_size * 8.0  # first packet immediately
        self._last_update = self.sim.now
        self._tick()

    def _halt(self) -> None:
        self._timer.cancel()

    def _tick(self) -> None:
        """Credit-based pacing: accumulate rate x time, send when full."""
        if not self.running:
            return
        now = self.sim.now
        rate = self.rate_bps
        self._credit_bits += rate * (now - self._last_update)
        self._last_update = now
        packet_bits = self.packet_size * 8.0
        # Never burst: at most one packet per tick, credit capped at one.
        if self._credit_bits >= packet_bits:
            self._credit_bits = min(self._credit_bits - packet_bits, packet_bits)
            self._transmit(DATA, self._seq, self.packet_size)
            self._seq += 1
            self.packets_sent += 1
        deficit = max(packet_bits - self._credit_bits, 0.0)
        next_tick = min(deficit / rate, self.MAX_TICK)
        self._timer.schedule(max(next_tick, 1e-6))

    def receive(self, packet: Packet) -> None:
        """CBR is open-loop; any feedback is ignored."""


class CbrSink(Receiver):
    """Absorbs CBR data (counts it for the flow accountant)."""

    def receive(self, packet: Packet) -> None:
        if packet.kind == DATA:
            self._deliver(packet)


def on_off_schedule(
    sim: Simulator,
    source: Sender,
    transitions: Sequence[tuple[float, bool]],
) -> None:
    """Drive ``source`` through explicit (time, on?) transitions.

    Figure 3's CBR pattern — ON at 0, OFF at 150, ON at 180 — is
    ``[(0.0, True), (150.0, False), (180.0, True)]``.
    """
    previous = -1.0
    for time, turn_on in transitions:
        if time < previous:
            raise ValueError("transitions must be time-ordered")
        previous = time
        sim.at(time, source.start if turn_on else source.stop)


def square_wave(
    sim: Simulator,
    source: Sender,
    on_s: Seconds,
    off_s: Seconds,
    until: Seconds = float("inf"),
) -> None:
    """Alternate ``source`` on/off, ON from time 0, until ``until``.

    Equal ``on_s`` and ``off_s`` give the paper's square wave (Figure 2);
    the period of the wave is ``on_s + off_s``.
    """
    if on_s <= 0 or off_s <= 0:
        raise ValueError("on and off durations must be positive")
    transitions: list[tuple[float, bool]] = []
    t = 0.0
    on = True
    while t < until:
        transitions.append((t, on))
        t += on_s if on else off_s
        on = not on
    on_off_schedule(sim, source, transitions)

