"""RAP: the Rate Adaptation Protocol (Rejaie et al., Infocom 1999).

RAP is AIMD like TCP, but **rate-based**: a timer, not the ACK clock,
triggers transmissions.  The sender keeps a virtual window ``w`` (packets
per RTT) and transmits at ``w / srtt`` packets per second; each RTT without
loss adds ``a`` to ``w``, and each loss event multiplies ``w`` by
``(1 - b)``.  Standard RAP is RAP(1/2); the paper's RAP(1/gamma) uses
b = 1/gamma with the TCP-compatible a(b).

The crucial difference from TCP(b) for the paper's Section 4.1: RAP keeps
transmitting at the computed rate even when acknowledgments stop arriving —
it does not obey packet conservation — which is exactly what produces
persistent overload after a sudden bandwidth reduction.

Loss detection is ACK-based, as in RAP: the receiver ACKs every packet, and
a packet is declared lost when ACKs arrive for three packets sent after it,
or when its ACK is overdue by an RTO-like timeout.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cc.aimd import tcp_compatible_a
from repro.cc.base import ACK_SIZE, INITIAL_RTT, Receiver, Sender
from repro.net.packet import ACK, DATA, Packet
from repro.sim.engine import Simulator, Timer
from repro.telemetry.probes import SeriesProbe
from repro.contracts import NonNegPps, PositiveBytes, Probability, checked
from repro.units import Seconds

__all__ = ["RapSender", "RapSink", "new_rap_flow"]


class RapSender(Sender):
    """Rate-based AIMD sender.

    Parameters
    ----------
    b:
        Multiplicative decrease factor (RAP(1/gamma) -> b = 1/gamma); the
        additive increase per RTT is the paper's TCP-compatible
        a = 4(2b - b^2)/3.
    """

    LOSS_REORDER_DEPTH = 3

    @checked
    def __init__(
        self,
        sim: Simulator,
        b: Probability = 0.5,
        packet_size: PositiveBytes = 1000,
        conservative: bool = False,
    ):
        super().__init__(sim, packet_size)
        if not 0 < b < 1:
            raise ValueError("b must be in (0, 1)")
        self.b = b
        self.a = tcp_compatible_a(b)
        # Ablation of the paper's packet-conservation principle applied to
        # RAP: on a loss event, additionally clamp the virtual window to the
        # number of ACKs that actually arrived in the last RTT (the analogue
        # of TFRC's conservative_ option).
        self.conservative = conservative
        self._recent_acks: list[float] = []  # algorithm state, not telemetry
        self.w = 1.0  # virtual window, packets per RTT
        self.srtt = INITIAL_RTT
        self._seq = 0
        # seq -> send time, in send order: sequence numbers and send times
        # both rise along it, so the stale and the lost packets are prefixes.
        self._outstanding: OrderedDict[int, float] = OrderedDict()
        self._highest_acked = -1
        self._loss_in_round = False
        self._round_end = 0.0
        self._send_timer = Timer(sim, self._send_next)
        self._round_timer = Timer(sim, self._end_round)
        self.loss_events = 0
        self._rate_probe = SeriesProbe("rate")
        self.probes["rate"] = self._rate_probe

    # Rate bookkeeping -----------------------------------------------------------

    @property
    @checked
    def rate_pps(self) -> NonNegPps:
        return self.w / self.srtt

    def _record_rate(self) -> None:
        """Sample the sending rate in bits/s, the unit of TFRC's and TEAR's."""
        if self.recorded:
            self._rate_probe.record(self.sim.now, self.rate_pps * self.packet_size * 8.0)

    # Lifecycle ---------------------------------------------------------------------

    def _begin(self) -> None:
        self._record_rate()
        self._round_timer.schedule(self.srtt)
        self._send_next()

    def _halt(self) -> None:
        self._send_timer.cancel()
        self._round_timer.cancel()

    # Transmission (timer-driven: NOT self-clocked) -----------------------------------

    def _send_next(self) -> None:
        if not self.running:
            return
        self._transmit(DATA, self._seq, self.packet_size)
        self._outstanding[self._seq] = self.sim.now
        self._seq += 1
        self.packets_sent += 1
        self._expire_stale()
        self._send_timer.schedule(1.0 / self.rate_pps)

    def _expire_stale(self) -> None:
        """Timeout-based loss detection: no ACK within several RTTs."""
        deadline = self.sim.now - 6.0 * self.srtt
        outstanding, expired = self._outstanding, False
        while outstanding and outstanding[next(iter(outstanding))] < deadline:
            outstanding.popitem(last=False)
            expired = True
        if expired:
            self._on_loss_event()

    # Per-RTT additive increase ----------------------------------------------------------

    def _end_round(self) -> None:
        if not self.running:
            return
        if not self._loss_in_round:
            self.w += self.a
            self._record_rate()
        self._loss_in_round = False
        self._round_timer.schedule(self.srtt)

    # ACK processing -----------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if not self.running or packet.kind != ACK:
            return
        seq = packet.ack_seq
        sent_at = self._outstanding.pop(seq, None)
        if sent_at is not None:
            self._sample_rtt(self.sim.now - sent_at)
        if self.conservative:
            self._recent_acks.append(self.sim.now)
        self._highest_acked = max(self._highest_acked, seq)
        # RAP gap detection: an ACK for packet k means anything more than
        # LOSS_REORDER_DEPTH behind k that is still unACKed was lost.
        horizon = self._highest_acked - self.LOSS_REORDER_DEPTH
        outstanding, lost = self._outstanding, False
        while outstanding and next(iter(outstanding)) < horizon:
            outstanding.popitem(last=False)
            lost = True
        if lost:
            self._on_loss_event()

    def _ack_rate_window(self) -> float:
        """ACKs received in the last RTT (the achieved bottleneck rate)."""
        cutoff = self.sim.now - self.srtt
        self._recent_acks = [t for t in self._recent_acks if t >= cutoff]
        return float(len(self._recent_acks))

    def _on_loss_event(self) -> None:
        """At most one multiplicative decrease per RTT (one loss event)."""
        if self._loss_in_round:
            return
        self._loss_in_round = True
        self.loss_events += 1
        self.w = max(self.w * (1.0 - self.b), 1.0)
        if self.conservative:
            # Packet conservation: never exceed what the path delivered.
            self.w = max(min(self.w, self._ack_rate_window()), 1.0)
        self._record_rate()

    def _sample_rtt(self, sample: Seconds) -> None:
        if sample <= 0:
            return
        self.srtt += 0.125 * (sample - self.srtt)


class RapSink(Receiver):
    """RAP receiver: one ACK per data packet, echoing its sequence number."""

    def receive(self, packet: Packet) -> None:
        if packet.kind != DATA:
            return
        self._deliver(packet)
        self._transmit(ACK, packet.seq, ACK_SIZE, ack_seq=packet.seq, echo=packet.sent_at)


@checked
def new_rap_flow(
    sim: Simulator,
    b: Probability = 0.5,
    packet_size: PositiveBytes = 1000,
    **sender_kwargs,
) -> tuple[RapSender, RapSink]:
    """Convenience constructor for a RAP sender/sink pair (not attached)."""
    sender = RapSender(sim, b=b, packet_size=packet_size, **sender_kwargs)
    sink = RapSink(sim, packet_size)
    return sender, sink
