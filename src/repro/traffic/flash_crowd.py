"""Flash crowds of short TCP transfers (Section 4.1.2).

The Figure 6 scenario starts, at a given time, a stream of short TCP
transfers (10 packets each) arriving at 200 flows/s for 5 seconds.  All
crowd flows share one host pair (they are distinguished by flow id), so the
crowd stresses only the bottleneck, not the builder.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cc.base import establish
from repro.cc.binomial import tcp_rule
from repro.cc.tcp import TcpSender, TcpSink
from repro.net.dumbbell import Dumbbell
from repro.sim.engine import Simulator
from repro.sim.rng import deterministic_default_rng
from repro.units import PerSecond, Seconds

__all__ = ["FlashCrowd"]


class FlashCrowd:
    """A stream of short TCP flows arriving over an interval.

    Parameters
    ----------
    sim, net:
        Kernel and topology.
    rate_per_s:
        Mean flow arrival rate (Poisson arrivals).
    duration_s:
        Length of the arrival window.
    transfer_packets:
        Size of each transfer (paper: 10 packets).
    start_time:
        When arrivals begin.
    rng:
        Randomness for the arrival process.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Dumbbell,
        rate_per_s: PerSecond,
        duration_s: Seconds,
        transfer_packets: int = 10,
        start_time: Seconds = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if rate_per_s <= 0 or duration_s <= 0 or transfer_packets <= 0:
            raise ValueError("rate, duration and transfer size must be positive")
        self.sim = sim
        self.net = net
        self.rate_per_s = rate_per_s
        self.duration_s = duration_s
        self.transfer_packets = transfer_packets
        self.start_time = start_time
        self._rng = rng if rng is not None else deterministic_default_rng()
        self._end_time = start_time + duration_s
        self._pair = net.add_host_pair(name="crowd")
        self.flow_ids: list[int] = []
        self.spawned = 0
        self.completed = 0
        sim.at(start_time, self._spawn_next)

    def _spawn_next(self) -> None:
        if self.sim.now >= self._end_time:
            return
        self._spawn_flow()
        gap = self._rng.expovariate(self.rate_per_s)
        self.sim.at(self.sim.now + gap, self._spawn_next)

    def _spawn_flow(self) -> None:
        sender = TcpSender(self.sim, rule=tcp_rule(0.5), max_packets=self.transfer_packets)
        sink = TcpSink(self.sim)
        flow_id = establish(self.net, sender, sink, pair=self._pair)
        self.flow_ids.append(flow_id)
        sender.on_complete = self._on_flow_complete
        sender.start()
        self.spawned += 1

    def _on_flow_complete(self, sender: TcpSender) -> None:
        self.completed += 1
        # Free the routing-table entries of finished flows.
        self._pair.source.unbind_flow(sender.flow_id)
        self._pair.destination.unbind_flow(sender.flow_id)

    def aggregate_throughput_bps(self, start: float, end: float) -> float:
        """Total delivered rate of all crowd flows over (start, end]."""
        total_bytes = sum(
            self.net.accountant.delivered_bytes(flow_id, start, end)
            for flow_id in self.flow_ids
        )
        duration = end - start
        return total_bytes * 8.0 / duration if duration > 0 else 0.0
