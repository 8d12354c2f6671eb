"""Random Early Detection (RED) queue management.

Implements the classic Floyd & Jacobson RED estimator and drop logic in
packet mode, with the "gentle" extension (drop probability ramps from
``max_p`` to 1 between ``max_thresh`` and ``2 * max_thresh`` rather than
jumping to 1): the configuration of the paper's ns-2 simulations, and the
only one here.

The paper's scenarios set ``min_thresh`` and ``max_thresh`` to 0.25 and 1.25
times the bandwidth-delay product and the physical queue to 2.5 times the
BDP; :func:`red_for_bdp` builds exactly that, and :func:`queue_depth` is the
one depth every bottleneck queue of a scenario gets.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.packet import Packet
from repro.net.queue import QueueDiscipline
from repro.sim.rng import deterministic_default_rng
from repro.contracts import (
    PositiveBytes,
    PositiveRate,
    PositiveSeconds,
    Probability,
    checked,
)
from repro.units import BitsPerSecond, Bytes, Packets, Seconds

__all__ = ["REDQueue", "bdp_packets", "queue_depth", "red_for_bdp"]


class REDQueue(QueueDiscipline):
    """RED AQM in packet mode.

    ``bypass_idle`` is False: the average-queue estimator must observe
    every arrival and every drain-to-idle, so the owning link may never
    skip ``enqueue``/``dequeue`` for this discipline.

    Parameters
    ----------
    capacity_pkts:
        Physical buffer size; arrivals beyond it are force-dropped.
    min_thresh, max_thresh:
        Average-queue thresholds, in packets.
    rng:
        Random stream for drop decisions (deterministic in tests).
    mean_packet_size:
        Used to estimate how many packets could have been transmitted
        during an idle period, for the idle-time estimator correction.
    """

    bypass_idle = False  # estimator needs every arrival/drain

    #: Drop probability as the average queue reaches ``max_thresh``.
    MAX_P = 0.1
    #: EWMA weight of the average-queue estimator.
    WEIGHT = 0.002

    __slots__ = (
        "min_thresh", "max_thresh", "max_p", "weight", "ecn_marking",
        "marks", "avg", "_rng", "_mean_pkt_time", "_count", "_idle_since",
    )

    @checked
    def __init__(
        self,
        capacity_pkts: int,
        min_thresh: Packets,
        max_thresh: Packets,
        rng: Optional[random.Random] = None,
        mean_packet_size: PositiveBytes = 1000,
        bandwidth_bps: PositiveRate = 10e6,
        ecn_marking: bool = False,
    ):
        super().__init__(capacity_pkts)
        if not 0 < min_thresh < max_thresh:
            raise ValueError("need 0 < min_thresh < max_thresh")
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.max_p = self.MAX_P
        self.weight = self.WEIGHT
        self._rng = rng if rng is not None else deterministic_default_rng()
        self._mean_pkt_time = mean_packet_size * 8.0 / bandwidth_bps
        # With ECN marking (RFC 3168), early "drops" of ECN-capable packets
        # become Congestion Experienced marks and the packet is enqueued —
        # but only while the average queue is in the marking region
        # (below max_thresh); beyond it, ECN packets drop like any other.
        self.ecn_marking = ecn_marking
        self.marks = 0
        self.avg = 0.0
        self._count = 0  # packets since the last early drop
        self._idle_since: Optional[float] = None

    @checked
    def _drop_probability(self) -> Probability:
        """Early-drop probability for the current average queue size."""
        if self.avg < self.min_thresh:
            return 0.0
        if self.avg < self.max_thresh:
            frac = (self.avg - self.min_thresh) / (self.max_thresh - self.min_thresh)
            return self.max_p * frac
        if self.avg < 2 * self.max_thresh:
            frac = (self.avg - self.max_thresh) / self.max_thresh
            return self.max_p + (1.0 - self.max_p) * frac
        return 1.0

    def _congested(self, packet: Packet) -> bool:
        """Mark instead of dropping when both ends are ECN-capable.

        Returns True when the packet should be dropped; False when it was
        marked (or nothing needed doing) and should be admitted.

        Per RFC 3168 §7 (and ns-2's RED), marking substitutes for drops
        only in the probabilistic region, while the average queue sits
        between the thresholds.  Once the average exceeds ``max_thresh``
        — the gentle ramp and the forced-drop region — the queue is
        past the point where marks alone can relieve congestion, so even
        ECN-capable packets are dropped.  Without this, a saturated ECN
        flow would never lose a packet short of physical overflow and
        the average queue could pin above the marking region forever.
        """
        if self.ecn_marking and packet.ect and self.avg < self.max_thresh:
            packet.ce = True
            self.marks += 1
            if self.telemetry is not None and self.telemetry.marks is not None:
                self.telemetry.marks.increment(self._clock.now)
            return False
        return True

    def admit(self, packet: Packet) -> bool:
        # EWMA update with the RED paper's idle-period correction, on locals (once per packet).
        q = len(self._buffer)
        avg = self.avg
        weight = self.weight
        if q == 0 and self._idle_since is not None:
            idle = self._clock.now - self._idle_since
            missed = int(idle / self._mean_pkt_time)
            avg *= (1.0 - weight) ** missed
            self._idle_since = None
        avg += weight * (q - avg)
        self.avg = avg
        if q >= self.capacity_pkts:
            self._count = 0
            return False  # physical overflow always drops, even with ECN
        if avg <= self.min_thresh:  # the ramp starts above it: p_b is zero
            self._count = -1
            return True
        p_b = self._drop_probability()
        if p_b >= 1.0:
            self._count = 0
            return not self._congested(packet)
        count = self._count + 1
        self._count = count
        # Spread drops uniformly: p_a = p_b / (1 - count * p_b).
        # (p_a above 1 is as certain as 1: random() stays below both.)
        denominator = 1.0 - count * p_b
        p_a = p_b / denominator if denominator > 0 else 1.0
        if self._rng.random() < p_a:
            self._count = 0
            return not self._congested(packet)
        return True

    def dequeue(self) -> Optional[Packet]:
        buffer = self._buffer
        if not buffer:
            return None
        packet = buffer.popleft()
        if not buffer:
            self._idle_since = self._clock.now
        return packet


def bdp_packets(bandwidth_bps: BitsPerSecond, rtt_s: Seconds, packet_size: Bytes) -> Packets:
    """Bandwidth-delay product, in packets of ``packet_size`` bytes."""
    return bandwidth_bps * rtt_s / (8.0 * packet_size)


def queue_depth(bandwidth_bps: BitsPerSecond, rtt_s: Seconds, packet_size: Bytes) -> int:
    """The paper's bottleneck buffer, RED's and drop-tail's alike: 2.5 x BDP
    rounded to a whole packet, and never under 4."""
    return max(4, int(round(2.5 * bdp_packets(bandwidth_bps, rtt_s, packet_size))))


@checked
def red_for_bdp(
    bandwidth_bps: PositiveRate,
    rtt_s: PositiveSeconds,
    packet_size: PositiveBytes = 1000,
    rng: Optional[random.Random] = None,
    ecn_marking: bool = False,
) -> REDQueue:
    """RED queue with the paper's BDP-proportional configuration.

    Queue capacity 2.5 x BDP, ``min_thresh`` 0.25 x BDP and ``max_thresh``
    1.25 x BDP (Section 3 of the paper), with thresholds floored so tiny
    scaled-down scenarios stay valid.
    """
    bdp_pkts = bdp_packets(bandwidth_bps, rtt_s, packet_size)
    capacity = queue_depth(bandwidth_bps, rtt_s, packet_size)
    min_thresh = max(1.0, 0.25 * bdp_pkts)
    max_thresh = max(min_thresh + 1.0, 1.25 * bdp_pkts)
    return REDQueue(
        capacity_pkts=capacity,
        min_thresh=min_thresh,
        max_thresh=max_thresh,
        rng=rng,
        mean_packet_size=packet_size,
        bandwidth_bps=bandwidth_bps,
        ecn_marking=ecn_marking,
    )
