"""Queueing disciplines: the base interface and DropTail.

A queue decides, per arriving packet, whether to enqueue or drop.  The
owning :class:`~repro.net.link.Link` dequeues packets for transmission.
Queues emit arrivals, drops and ECN marks into telemetry probes (a
:class:`QueueProbes` bundle wired up by the per-link
:class:`~repro.net.monitor.LinkMonitor`), which is how loss rates are
measured; per-packet hooks go on the link (:meth:`Link.add_tap`).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from types import SimpleNamespace
from typing import Any, Optional

from repro.net.packet import Packet
from repro.telemetry.probes import CounterProbe
from repro.units import Bytes

__all__ = ["QueueDiscipline", "DropTailQueue", "QueueProbes"]


#: The clock of a queue no link has bound yet: it stands at zero.
_EPOCH = SimpleNamespace(now=0.0)


@dataclasses.dataclass
class QueueProbes:
    """Telemetry channels a queue emits into (wired by a link monitor)."""

    arrivals: CounterProbe
    drops: CounterProbe
    marks: Optional[CounterProbe] = None


class QueueDiscipline:
    """Base class: a FIFO buffer with a pluggable admission decision.

    Parameters
    ----------
    capacity_pkts:
        Maximum number of packets *waiting* in the buffer.  The packet
        currently being transmitted is **not** counted: the owning
        :class:`~repro.net.link.Link` dequeues it for the duration of its
        serialization and exposes it as ``link.in_service``.  A busy link
        with a capacity-N drop-tail queue therefore holds up to N + 1
        packets in total (N queued + 1 in service) — the ns-2 convention,
        where the buffer and the transmitter are separate stages.  This
        is pinned by regression tests; changing it to "N including the
        one in service" would shrink every buffer by one packet and
        perturb all figure tables.
    """

    #: Whether the owning link may skip the enqueue/dequeue round trip for
    #: a packet arriving at an idle link with an empty buffer.  True for
    #: passive FIFO disciplines whose admit/dequeue have no side effects;
    #: disciplines with per-arrival state (RED's average-queue estimator)
    #: must override this to False.
    bypass_idle = True

    __slots__ = ("capacity_pkts", "_buffer", "_bytes", "telemetry", "_clock")

    def __init__(self, capacity_pkts: int):
        if capacity_pkts < 1:
            raise ValueError("queue capacity must be at least 1 packet")
        self.capacity_pkts = capacity_pkts
        self._buffer: deque[Packet] = deque()
        self._bytes = 0
        self.telemetry: Optional[QueueProbes] = None
        self._clock: Any = _EPOCH

    def bind_clock(self, clock: Any) -> None:
        """Attach the clock, read as ``clock.now`` (the owning link passes the simulator)."""
        self._clock = clock

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def byte_length(self) -> Bytes:
        """Bytes waiting in the buffer (excluding the packet in service)."""
        return self._bytes

    def admit(self, packet: Packet) -> bool:
        """Admission decision.  Subclasses override (RED drops early)."""
        return len(self._buffer) < self.capacity_pkts

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet; returns True if enqueued, False if dropped."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.arrivals.increment(self._clock.now)
        if not self.admit(packet):
            if telemetry is not None:
                telemetry.drops.increment(self._clock.now)
            return False
        self._buffer.append(packet)
        self._bytes += packet.size
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty."""
        if not self._buffer:
            return None
        packet = self._buffer.popleft()
        self._bytes -= packet.size
        return packet


class DropTailQueue(QueueDiscipline):
    """Plain FIFO tail-drop queue."""

    __slots__ = ()
