"""A unidirectional bandwidth + propagation-delay link with a queue.

The link is the only place in the simulator where packets take time:
serialization at ``bandwidth_bps`` plus a fixed propagation ``delay_s``.
Packets that arrive while the transmitter is busy wait in the attached
:class:`~repro.net.queue.QueueDiscipline`, which is where all congestion
losses happen.  A serialization ends at a *time*, not at an event: its
start schedules the delivery, so an uncontended crossing is one calendar
event; one at the end exists only for a tap or a waiting packet.  A tap
only watches: its events ride beside the link's own and never decide
anything, so a tapped link sends, queues and drops exactly like a bare one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, QueueDiscipline
from repro.sim.engine import Simulator
from repro.contracts import NonNegSeconds, PositiveRate, checked

__all__ = ["Link"]


class Link:
    """Point-to-point link feeding packets to a receiver callback.

    Parameters
    ----------
    sim:
        The simulation kernel.
    bandwidth_bps:
        Transmission rate in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    queue:
        Queueing discipline; DropTail with a generous buffer by default.
    name:
        Label used in monitors and debugging output.

    The packet being serialized is out of the queue (:attr:`in_service`), so
    a busy link holds ``len(link.queue) + 1`` packets.
    """

    __slots__ = ("sim", "bandwidth_bps", "delay_s", "queue", "name", "_receiver", "_taps",
                 "_tx_per_byte", "_busy_until", "_wake", "_last", "_pkts", "_bytes")

    @checked
    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: PositiveRate,
        delay_s: NonNegSeconds,
        queue: Optional[QueueDiscipline] = None,
        name: str = "link",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue = queue if queue is not None else DropTailQueue(1000)
        self.queue.bind_clock(sim)
        self.name = name
        self._receiver: Optional[Callable[[Packet], None]] = None
        self._taps: list[Callable[[Packet], None]] = []
        self._tx_per_byte = 8.0 / bandwidth_bps
        self._busy_until = 0.0  # when the serialization in progress ends
        # _departed is pending at _busy_until, for waiting packets: arrivals queue until it
        # fires, even at that instant.
        self._wake = False
        self._last: Optional[Packet] = None  # latest packet put on the wire
        self._pkts = self._bytes = 0  # serializations started, and their bytes

    @property
    def in_service(self) -> Optional[Packet]:
        """The packet being serialized now, or None while the link is idle."""
        return self._last if self.sim.now < self._busy_until else None

    @property
    def packets_sent(self) -> int:
        """Packets whose serialization has ended."""
        return self._pkts - (self.sim.now < self._busy_until)

    @property
    def bytes_sent(self) -> int:
        """Bytes of the packets whose serialization has ended."""
        packet = self.in_service
        return self._bytes - (packet.size if packet is not None else 0)

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Set the downstream receiver (a node's or agent's receive)."""
        self._receiver = receiver

    def add_tap(self, tap: Callable[[Packet], None]) -> None:
        """Register a departure tap, called once per transmitted packet.

        Taps (the monitors' hook) fire the instant a serialization ends, the packet
        counted and its delivery scheduled; one added mid-serialization sees it too.
        """
        self._taps.append(tap)
        # With a tap on, one pending event carries the packet in service to the taps:
        # the first tap starts that here, later ones find it made.
        if len(self._taps) == 1 and self.sim.now < self._busy_until:
            self.sim.call_at(self._busy_until, self._tapped, self._last)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link; it queues, serializes, propagates."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} is not connected")
        queue = self.queue
        now = self.sim.now
        if self._wake or now < self._busy_until:
            if queue.enqueue(packet) and not self._wake:
                self._wake = True
                self.sim.call_at(self._busy_until, self._departed)
            return
        if not queue.bypass_idle or queue.telemetry is not None:
            # RED sees every arrival, a monitored queue counts it; a passive one skips the trip.
            if not queue.enqueue(packet):
                return
            queue.dequeue()  # the packet itself: nothing was waiting
        self._transmit(packet, now)

    def _transmit(self, packet: Packet, now: float) -> None:
        """Put ``packet`` on the wire at ``now``; the link is idle."""
        done = now + packet.size * self._tx_per_byte
        self._busy_until = done
        self._last = packet
        self._pkts += 1
        self._bytes += packet.size
        self.sim.call_at(done + self.delay_s, self._receiver, packet)
        if self.queue._buffer:
            self._wake = True
            if self._taps:
                # The taps ride the wake-up a bare link schedules right here.
                self.sim.call_at(done, self._departed, packet)
            else:
                self.sim.call_at(done, self._departed)
        elif self._taps:
            self.sim.call_at(done, self._tapped, packet)

    def _tapped(self, departed: Packet) -> None:
        """The serialization of ``departed`` ended now: show it to the taps."""
        for tap in self._taps:
            tap(departed)

    def _departed(self, departed: Optional[Packet] = None) -> None:
        """A serialization ended now and packets wait: taps, then the next."""
        if departed is not None:
            for tap in self._taps:
                tap(departed)
        self._wake = False
        packet = self.queue.dequeue() if self.queue._buffer else None
        if packet is not None:
            self._transmit(packet, self.sim.now)
