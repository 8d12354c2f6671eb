"""A unidirectional bandwidth + propagation-delay link with a queue.

The link is the only place in the simulator where packets take time:
serialization at ``bandwidth_bps`` plus a fixed propagation ``delay_s``.
Packets that arrive while the transmitter is busy wait in the attached
:class:`~repro.net.queue.QueueDiscipline`, which is where all congestion
losses happen.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, QueueDiscipline
from repro.sim.engine import Simulator
from repro.contracts import NonNegRatio, NonNegSeconds, PositiveRate
from repro.units import Bytes, Seconds

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

    Notes
    -----
    The packet being serialized is *dequeued* from the queue for the
    duration of its transmission and exposed as :attr:`in_service`
    (``None`` while the link is idle).  Total occupancy behind a busy
    link is therefore ``len(link.queue) + 1``: ``capacity_pkts`` waiting
    packets plus the one in service.  See
    :class:`~repro.net.queue.QueueDiscipline` for the accounting
    contract.
    """

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
        self.queue.bind_clock(lambda: sim.now)
        self.name = name
        self._receiver: Optional[Callable[[Packet], None]] = None
        self._busy = False
        self.in_service: Optional[Packet] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        self._taps: list[Callable[[Packet], None]] = []
        # Per-packet constants, hoisted off the transmission fast path.
        self._tx_per_byte = 8.0 / bandwidth_bps

    def connect(self, receiver: Callable[[Packet], None]) -> None:
        """Set the downstream receiver (a node's or agent's receive)."""
        self._receiver = receiver

    def add_tap(self, tap: Callable[[Packet], None]) -> None:
        """Register a departure tap, called once per transmitted packet.

        Taps fire after ``bytes_sent``/``packets_sent`` are updated and
        before the packet is scheduled for propagation.  This is the
        sanctioned hook for monitors; it replaces the old practice of
        monkey-patching ``_transmission_done``.
        """
        self._taps.append(tap)

    def send(self, packet: Packet) -> None:
        """Offer a packet to the link; it queues, serializes, propagates."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} is not connected")
        queue = self.queue
        if (
            not self._busy
            and queue.bypass_idle
            and not queue._buffer
            and queue.telemetry is None
        ):
            # Idle-link fast path: a packet arriving at an idle link with
            # an empty passive queue would be enqueued and immediately
            # dequeued by _start_transmission.  Skip the round trip; this
            # is the common case on over-provisioned access links.
            # Only unobserved queues that declare themselves side-effect
            # free take it (RED must see every arrival for its average
            # estimator; monitored queues must count every arrival).
            self._busy = True
            self.in_service = packet
            self.sim.call_in(
                packet.size * self._tx_per_byte, self._transmission_done, packet
            )
            return
        if queue.enqueue(packet) and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            self.in_service = None
            return
        self._busy = True
        self.in_service = packet
        # Fire-and-forget: per-packet link events are never cancelled.
        self.sim.call_in(
            packet.size * self._tx_per_byte, self._transmission_done, packet
        )

    def _transmission_done(self, packet: Packet) -> None:
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self._taps:
            for tap in self._taps:
                tap(packet)
        self.sim.call_in(self.delay_s, self._receiver, packet)
        self._start_transmission()

    def utilization(
        self, start: Seconds, end: Seconds, bytes_in_window: Bytes
    ) -> NonNegRatio:
        """Fraction of capacity used by ``bytes_in_window`` over [start, end)."""
        capacity_bytes = self.bandwidth_bps * (end - start) / 8.0
        return bytes_in_window / capacity_bytes if capacity_bytes > 0 else 0.0
