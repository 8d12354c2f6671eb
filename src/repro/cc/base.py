"""Agent plumbing shared by every congestion-control protocol.

A flow is a :class:`Sender` on one host talking to a :class:`Receiver` on
another.  Senders own the congestion control state; receivers generate the
protocol's feedback (cumulative ACKs for TCP, per-packet ACKs for RAP,
once-per-RTT reports for TFRC).  :func:`establish` wires a sender/receiver
pair across a :class:`~repro.net.dumbbell.Dumbbell` and registers delivery
accounting.

The abstract :class:`WindowRule` captures a window-update policy — the only
thing that differs between TCP(b), SQRT(b) and IIAD — so the full TCP
machinery in :mod:`repro.cc.tcp` is written once.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.net.dumbbell import Dumbbell, HostPair
from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.telemetry import active_recorder
from repro.telemetry.probes import Probe, SeriesProbe
from repro.contracts import CwndPackets, NonNegSeconds, PositiveBytes, checked
from repro.units import Packets, Seconds

__all__ = ["WindowRule", "Endpoint", "Sender", "Receiver", "establish"]

ACK_SIZE = 40


class WindowRule(abc.ABC):
    """A congestion-window update policy.

    The TCP machinery calls :meth:`increase_per_ack` once per new ACK (so a
    per-RTT increase of I(w) becomes I(w)/w per ACK) and :meth:`decrease`
    once per loss event.
    """

    name = "abstract"

    @abc.abstractmethod
    @checked
    def increase_per_ack(self, w: CwndPackets) -> Packets:
        """Additive window increment applied for one new ACK."""

    @abc.abstractmethod
    @checked
    def decrease(self, w: CwndPackets) -> CwndPackets:
        """New window after a loss event (>= 1)."""


class Endpoint:
    """One end of a flow: owns the node binding and packet construction."""

    @checked
    def __init__(self, sim: Simulator, packet_size: PositiveBytes = 1000):
        self.sim = sim
        self.packet_size = packet_size
        self.node: Optional[Node] = None
        self.peer_address: int = -1
        self.flow_id: int = -1

    def attach(self, node: Node, peer_address: int, flow_id: int) -> None:
        """Bind this endpoint to a node and its peer's address."""
        self.node = node
        self.peer_address = peer_address
        self.flow_id = flow_id
        node.bind_flow(flow_id, self.receive)

    def _transmit(
        self,
        kind: str,
        seq: int,
        size: int,
        ack_seq: int = -1,
        echo: Seconds = -1.0,
        info=None,
        ect: bool = False,
        ece: bool = False,
    ) -> Packet:
        node = self.node
        assert node is not None, "endpoint is not attached"
        # Positional: one of these per packet.
        packet = Packet(
            self.flow_id,
            kind,
            seq,
            size,
            node.address,
            self.peer_address,
            self.sim.now,
            ack_seq,
            echo,
            info,
            ect,
        )
        packet.ece = ece
        node.send(packet)
        return packet

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Sender(Endpoint):
    """Base class for sending agents (the congestion-controlled side).

    Subclasses implement :meth:`_begin` (kick off transmission) and
    :meth:`receive` (process ACK/feedback packets).  ``max_packets`` bounds
    the transfer (for flash-crowd style short flows); None means long-lived.
    """

    @checked
    def __init__(
        self,
        sim: Simulator,
        packet_size: PositiveBytes = 1000,
        max_packets: Optional[int] = None,
    ):
        super().__init__(sim, packet_size)
        self.max_packets = max_packets
        self.running = False
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.packets_sent = 0
        self.on_complete: Optional[Callable[["Sender"], None]] = None
        # Telemetry channels this sender emits (cwnd, rate, timeouts...).
        # Subclasses register probes here; establish() adopts them into
        # the active recorder as flow.<id>.<key>.
        self.probes: dict[str, Probe] = {}
        # Pay-for-use: the cwnd / rate series have no reader but a trace,
        # so they are written only when attach() finds a recorder active.
        self.recorded = False

    def attach(self, node: Node, peer_address: int, flow_id: int) -> None:
        """Bind to a node; under a recorder, start writing the series."""
        super().attach(node, peer_address, flow_id)
        self.recorded = active_recorder() is not None

    def _samples(self, probe: SeriesProbe) -> list[tuple[float, float]]:
        """(time, value) samples of one of this sender's series; raises if unrecorded."""
        if not self.recorded:
            raise RuntimeError(
                f"{probe.name} was not recorded: attach the sender inside "
                "telemetry.capture() to have its series written"
            )
        return list(probe)

    def start(self) -> None:
        """Begin transmitting now."""
        if self.running:
            return
        self.running = True
        self.started_at = self.sim.now
        self._begin()

    @checked
    def start_at(self, time: NonNegSeconds) -> None:
        """Schedule :meth:`start` at an absolute simulation time."""
        self.sim.at(time, self.start)

    def stop(self) -> None:
        """Stop transmitting (timers are disarmed by subclasses)."""
        if not self.running:
            return
        self.running = False
        self.stopped_at = self.sim.now
        self._halt()

    @checked
    def stop_at(self, time: NonNegSeconds) -> None:
        self.sim.at(time, self.stop)

    def _begin(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _halt(self) -> None:
        """Subclasses cancel their timers here."""

    def _complete(self) -> None:
        """Called by subclasses when a bounded transfer finishes."""
        self.stop()
        if self.on_complete is not None:
            self.on_complete(self)


class Receiver(Endpoint):
    """Base class for receiving agents.

    ``on_data`` callbacks fire for every delivered data packet; the
    dumbbell's :class:`~repro.net.monitor.FlowAccountant` subscribes here.
    """

    @checked
    def __init__(self, sim: Simulator, packet_size: PositiveBytes = 1000):
        super().__init__(sim, packet_size)
        self.on_data: list[Callable[[Packet], None]] = []
        self.packets_received = 0
        self.bytes_received = 0

    def _deliver(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        for callback in self.on_data:
            callback(packet)


def establish(
    net: Dumbbell,
    sender: Sender,
    receiver: Receiver,
    forward: bool = True,
    pair: Optional[HostPair] = None,
) -> int:
    """Wire a sender/receiver pair across a dumbbell; returns the flow id.

    Creates a host pair (unless one is given), binds both endpoints, and
    registers the dumbbell's flow accountant for delivered-data accounting.
    """
    if pair is None:
        pair = net.add_host_pair(forward=forward)
    flow_id = net.new_flow_id()
    sender.attach(pair.source, pair.destination.address, flow_id)
    receiver.attach(pair.destination, pair.source.address, flow_id)
    receiver.on_data.append(net.accountant.on_deliver)
    recorder = active_recorder()
    if recorder is not None:
        for key, probe in sender.probes.items():
            recorder.adopt(f"flow.{flow_id}.{key}", probe)
    return flow_id
