"""Simple one-hop paths for controlled-loss experiments.

The Section 4.3 smoothness scenarios impose a crafted loss pattern on a
single flow; the network itself must not add congestion losses.  This
builder wires a sender and receiver over a symmetric two-node path with an
optional dropper on the forward (data) direction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.droppers import Dropper
from repro.net.link import Link
from repro.net.node import Node
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.units import BitsPerSecond, Seconds

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.cc.base import Receiver, Sender

__all__ = ["single_path"]


def single_path(
    sim: Simulator,
    sender: "Sender",
    receiver: "Receiver",
    rtt_s: Seconds = 0.05,
    bandwidth_bps: BitsPerSecond = 1e7,
    dropper: Optional[Dropper] = None,
) -> None:
    """Wire sender -> (dropper) -> receiver plus the reverse feedback path.

    Each direction gets ``bandwidth_bps`` and half the RTT of propagation.
    The queues are deep enough that the dropper (not a queue) is the only
    loss mechanism.  The one flow has id 0.
    """
    source = Node(sim, address=1, name="src")
    destination = Node(sim, address=2, name="dst")
    forward = Link(
        sim, bandwidth_bps, rtt_s / 2.0, DropTailQueue(100_000), name="fwd"
    )
    backward = Link(
        sim, bandwidth_bps, rtt_s / 2.0, DropTailQueue(100_000), name="bwd"
    )
    if dropper is not None:
        dropper.connect(destination.receive)
        forward.connect(dropper.receive)
    else:
        forward.connect(destination.receive)
    backward.connect(source.receive)
    source.add_route(2, forward)
    destination.add_route(1, backward)
    sender.attach(source, 2, 0)
    receiver.attach(destination, 1, 0)
