"""Nodes: endpoints and routers.

A :class:`Node` forwards packets by destination address and delivers packets
addressed to itself to the agent registered for the packet's flow.  This is
all the routing the single-bottleneck dumbbell needs, while staying general
enough for arbitrary topologies built by hand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulator

__all__ = ["Node"]


class Node:
    """A network node with destination-based forwarding.

    Parameters
    ----------
    sim:
        The simulation kernel.
    address:
        Unique integer address.
    name:
        Debugging label.
    """

    __slots__ = ("sim", "address", "name", "_routes", "_default_route", "_flow_handlers")

    def __init__(self, sim: "Simulator", address: int, name: str = ""):
        self.sim = sim
        self.address = address
        self.name = name or f"node{address}"
        self._routes: dict[int, Link] = {}
        self._default_route: Optional[Link] = None
        self._flow_handlers: dict[int, Callable[[Packet], None]] = {}

    def add_route(self, dst: int, link: Link) -> None:
        """Route packets for node ``dst`` out of ``link``."""
        self._routes[dst] = link

    def set_default_route(self, link: Link) -> None:
        """Fallback link for destinations without an explicit route."""
        self._default_route = link

    def bind_flow(self, flow_id: int, handler: Callable[[Packet], None]) -> None:
        """Deliver packets of ``flow_id`` addressed to this node to ``handler``."""
        if flow_id in self._flow_handlers:
            raise ValueError(f"flow {flow_id} already bound on {self.name}")
        self._flow_handlers[flow_id] = handler

    def unbind_flow(self, flow_id: int) -> None:
        self._flow_handlers.pop(flow_id, None)

    def send(self, packet: Packet) -> None:
        """Forward a packet (locally generated or in transit) by destination."""
        link = self._routes.get(packet.dst, self._default_route)
        if link is None:
            raise RuntimeError(
                f"{self.name}: no route for packet to {packet.dst}"
            )
        link.send(packet)

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link."""
        dst = packet.dst
        if dst == self.address:
            handler = self._flow_handlers.get(packet.flow_id)
            if handler is not None:
                handler(packet)
            # Packets for unbound flows (e.g. a stopped agent) are dropped
            # silently, as a real host would discard them.
            return
        # Transit: the body of send(), without the extra frame per hop.
        link = self._routes[dst] if dst in self._routes else self._default_route
        if link is None:
            raise RuntimeError(f"{self.name}: no route for packet to {dst}")
        link.send(packet)
