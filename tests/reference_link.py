"""Frozen pre-overhaul link: the delivery-order oracle.

A faithful snapshot of :class:`repro.net.link.Link` as it stood *before*
a serialization's end became a time instead of an event — the way
``tests/reference_kernel.py`` froze the event kernel.  The property
tests in ``tests/test_net_link_fastpath.py`` drive random arrival
programs through both links and assert the live link delivers, drops,
taps and counts exactly as this one does.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, QueueDiscipline
from repro.sim.engine import Simulator

__all__ = ["ReferenceLink"]


class ReferenceLink:
    """Pre-overhaul link: ``_busy`` flag, one event per serialization end.

    Every packet costs two calendar events here — ``_transmission_done``
    at the end of its serialization, which counts it, fires the taps,
    schedules the delivery and starts the next packet — and an arrival
    at an idle passive link is special-cased to skip the queue.  The
    public surface matches :class:`repro.net.link.Link`.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        delay_s: float,
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
            self.sim.at(
                self.sim.now + packet.size * self._tx_per_byte,
                self._transmission_done,
                packet,
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
        self.sim.at(
            self.sim.now + packet.size * self._tx_per_byte,
            self._transmission_done,
            packet,
        )

    def _transmission_done(self, packet: Packet) -> None:
        self.bytes_sent += packet.size
        self.packets_sent += 1
        if self._taps:
            for tap in self._taps:
                tap(packet)
        self.sim.at(self.sim.now + self.delay_s, self._receiver, packet)
        self._start_transmission()
