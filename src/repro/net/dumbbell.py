"""Single-bottleneck dumbbell topology builder.

All of the paper's simulations run on a dumbbell: n sources on the left, n
sinks on the right, one congested link between two routers, RED queue
management at the bottleneck, RTT about 50 ms, and (optionally) data traffic
in both directions on the congested link (Section 3).

The builder wires nodes, links and routing, attaches a
:class:`~repro.net.monitor.LinkMonitor` to the forward bottleneck and a
:class:`~repro.net.monitor.FlowAccountant` for per-flow throughput.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.link import Link
from repro.net.monitor import FlowAccountant, LinkMonitor
from repro.net.node import Node
from repro.net.queue import DropTailQueue, QueueDiscipline
from repro.net.red import red_for_bdp
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import active_recorder
from repro.units import BitsPerSecond, Bytes, Packets, Seconds

__all__ = ["Dumbbell", "HostPair"]


class HostPair:
    """A source host and its destination host, wired through the dumbbell."""

    __slots__ = ("source", "destination", "forward")

    def __init__(self, source: Node, destination: Node, forward: bool):
        self.source = source
        self.destination = destination
        self.forward = forward  # True if data crosses the bottleneck left->right


class Dumbbell:
    """Dumbbell topology with a RED (or custom) bottleneck queue.

    Parameters
    ----------
    sim:
        Simulation kernel.
    bandwidth_bps:
        Bottleneck capacity, bits per second.
    rtt_s:
        Two-way propagation delay for any source/sink pair.
    packet_size:
        Nominal data packet size in bytes (for BDP-derived queue sizing).
    queue_factory:
        Builds the forward bottleneck queue; defaults to the paper's RED
        configuration (2.5 x BDP buffer, thresholds at 0.25 / 1.25 x BDP).
    access_factor:
        Access links run at ``access_factor`` times the bottleneck rate so
        that queueing happens only at the bottleneck.
    rng:
        Registry for the RED drop streams.
    ecn_marking:
        Make the default RED bottleneck mark ECN-capable packets instead
        of dropping them (ignored when a custom queue_factory is given).
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: BitsPerSecond,
        rtt_s: Seconds,
        packet_size: Bytes = 1000,
        queue_factory: Optional[Callable[[], QueueDiscipline]] = None,
        access_factor: float = 20.0,
        rng: Optional[RngRegistry] = None,
        ecn_marking: bool = False,
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.rtt_s = rtt_s
        self.packet_size = packet_size
        self.rng = rng if rng is not None else RngRegistry(0)

        self._next_address = 0
        self._next_flow_id = 0

        self.router_left = self._new_node("routerL")
        self.router_right = self._new_node("routerR")

        if queue_factory is None:
            def queue_factory() -> QueueDiscipline:
                return red_for_bdp(
                    bandwidth_bps,
                    rtt_s,
                    packet_size=packet_size,
                    rng=self.rng.stream("red"),
                    ecn_marking=ecn_marking,
                )

        # Propagation budget: access delay + bottleneck delay + access delay
        # per direction, totalling rtt_s across both directions.
        self._access_delay = rtt_s / 8.0
        bottleneck_delay = rtt_s / 4.0
        self._access_bw = access_factor * bandwidth_bps

        self.bottleneck = Link(
            sim, bandwidth_bps, bottleneck_delay, queue_factory(), name="bottleneck"
        )
        self.bottleneck.connect(self.router_right.receive)
        self.reverse_bottleneck = Link(
            sim, bandwidth_bps, bottleneck_delay, queue_factory(), name="bottleneck_rev"
        )
        self.reverse_bottleneck.connect(self.router_left.receive)

        # When an experiment is capturing telemetry, every monitor channel
        # lands in the active recorder (link.bottleneck.*, flow.<id>.*).
        self.telemetry = active_recorder()
        self.monitor = LinkMonitor(sim, "bottleneck", recorder=self.telemetry)
        self.monitor.attach(self.bottleneck)
        # Only a trace reads the reverse bottleneck's channels.
        self.reverse_monitor: Optional[LinkMonitor] = None
        if self.telemetry is not None:
            self.reverse_monitor = LinkMonitor(sim, "bottleneck_rev", self.telemetry)
            self.reverse_monitor.attach(self.reverse_bottleneck)
        self.accountant = FlowAccountant(sim, recorder=self.telemetry)

    # Internals ----------------------------------------------------------------

    def _new_node(self, name: str) -> Node:
        node = Node(self.sim, self._next_address, name)
        self._next_address += 1
        return node

    def _access_link(self, name: str) -> Link:
        # Deep DropTail buffer: access links must never drop.
        return Link(
            self.sim,
            self._access_bw,
            self._access_delay,
            DropTailQueue(100_000),
            name=name,
        )

    def _attach_host(self, node: Node, router: Node) -> None:
        """Wire ``node`` to ``router`` with a link in each direction."""
        uplink = self._access_link(f"{node.name}->{router.name}")
        uplink.connect(router.receive)
        node.set_default_route(uplink)
        downlink = self._access_link(f"{router.name}->{node.name}")
        downlink.connect(node.receive)
        router.add_route(node.address, downlink)

    # Public API ---------------------------------------------------------------

    def new_flow_id(self) -> int:
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def add_host_pair(self, forward: bool = True, name: str = "") -> HostPair:
        """Create a source/sink host pair.

        ``forward=True`` sends data left-to-right over the monitored
        bottleneck; ``forward=False`` creates a right-to-left pair, used for
        the paper's bidirectional background traffic.
        """
        tag = name or f"h{self._next_address}"
        if forward:
            src_router, dst_router = self.router_left, self.router_right
            out_link, back_link = self.bottleneck, self.reverse_bottleneck
        else:
            src_router, dst_router = self.router_right, self.router_left
            out_link, back_link = self.reverse_bottleneck, self.bottleneck

        source = self._new_node(f"{tag}src")
        destination = self._new_node(f"{tag}dst")
        self._attach_host(source, src_router)
        self._attach_host(destination, dst_router)
        src_router.add_route(destination.address, out_link)
        dst_router.add_route(source.address, back_link)
        return HostPair(source, destination, forward)

    @property
    def bdp_packets(self) -> Packets:
        """Bandwidth-delay product of the bottleneck, in data packets."""
        return self.bandwidth_bps * self.rtt_s / (8.0 * self.packet_size)
