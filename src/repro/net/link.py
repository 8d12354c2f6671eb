"""A unidirectional bandwidth + propagation-delay link with a queue.

The link is the only place in the simulator where packets take time:
serialization at ``bandwidth_bps`` plus a fixed propagation ``delay_s``.
Packets that arrive while the transmitter is busy wait in the attached
:class:`~repro.net.queue.QueueDiscipline`, which is where all congestion
losses happen.  A serialization ends at a *time*, not at an event: its
start schedules the delivery, so an uncontended crossing is one calendar
event; one at the end exists only for a waiting packet.  A recorded link
(:meth:`Link.record_departures`) writes each serialization into its probe
when it starts, so it schedules, sends, queues and drops exactly like a bare
one.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, QueueDiscipline
from repro.sim.engine import Simulator
from repro.telemetry.probes import SeriesProbe
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

    __slots__ = ("sim", "bandwidth_bps", "delay_s", "queue", "name", "_receiver", "_record",
                 "_recorded_from", "_tx_per_byte", "_busy_until", "_wake", "_last", "_pkts",
                 "_bytes")

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
        self._record: Optional[SeriesProbe] = None  # the departures probe, once requested
        self._recorded_from = 0  # _bytes before the first recorded serialization
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

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Set the downstream receiver (a node's or agent's receive)."""
        self._receiver = receiver

    def record_departures(self, probe: SeriesProbe) -> None:
        """Write every serialization from now on into ``probe``.

        Each one is written when it starts, as ``(the time it ends, bytes departed
        since this call)``; a packet in service now is written at once.  So a run
        stopped mid-serialization holds that packet, stamped after the horizon, and
        the link schedules nothing for the probe.  A later call replaces the probe.
        """
        packet = self.in_service
        self._record = probe
        self._recorded_from = self._bytes - (packet.size if packet is not None else 0)
        if packet is not None:
            probe.record(self._busy_until, packet.size)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link; it queues, serializes, propagates."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} is not connected")
        queue = self.queue
        now = self.sim.now
        if self._wake or now < self._busy_until:
            if queue.enqueue(packet) and not self._wake:
                self._wake = True
                self.sim.at(self._busy_until, self._departed)
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
        self.sim.at(done + self.delay_s, self._receiver, packet)
        if self._record is not None:
            self._record.record(done, self._bytes - self._recorded_from)
        if self.queue._buffer:
            self._wake = True
            self.sim.at(done, self._departed)

    def _departed(self) -> None:
        """A serialization ended now and packets wait: start the next."""
        self._wake = False
        packet = self.queue.dequeue() if self.queue._buffer else None
        if packet is not None:
            self._transmit(packet, self.sim.now)
