"""Window-based TCP machinery with pluggable AIMD/binomial rules.

This is the paper's TCP(b) (and SQRT(b), IIAD when given a binomial rule):
the full TCP mechanism set —

* **self-clocking**: data transmission is triggered only by ACK arrivals
  (packet conservation), the property Section 4.1 identifies as decisive
  under sudden bandwidth reductions;
* **slow-start** with ssthresh;
* **fast retransmit / fast recovery** (NewReno-style partial ACKs);
* **retransmission timeout with exponential backoff**;

with the congestion-avoidance window update delegated to a
:class:`~repro.cc.base.WindowRule`: TCP(b) uses AIMD(4(2b-b^2)/3, b),
SQRT(b) and IIAD use binomial rules.

The model is packet-granular (sequence numbers count packets), like ns-2's
abstract TCP agents, and the receiver ACKs every packet (the paper models
TCP without delayed ACKs).
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import ACK_SIZE, Receiver, Sender, WindowRule
from repro.cc.binomial import tcp_rule
from repro.net.packet import ACK, DATA, Packet
from repro.sim.engine import Simulator, Timer
from repro.telemetry.probes import CounterProbe, SeriesProbe
from repro.contracts import PositiveBytes, PositiveSeconds, checked
from repro.units import Seconds

__all__ = ["TcpSender", "TcpSink", "new_tcp_flow"]


class TcpSender(Sender):
    """A TCP sender with a pluggable congestion-avoidance window rule.

    Parameters
    ----------
    sim:
        Simulation kernel.
    rule:
        Window update policy; defaults to standard TCP (AIMD b = 1/2).
    packet_size:
        Data packet size in bytes.
    max_packets:
        Transfer length in packets (None = long-lived flow).
    initial_ssthresh:
        Slow-start threshold at start-up (packets); effectively unbounded
        by default, as in ns-2.
    min_rto, max_rto, initial_rto:
        Retransmit timer bounds in seconds.
    max_cwnd:
        Optional hard window cap (packets).
    ecn:
        Negotiate ECN: data packets carry ECT and an ECN-Echo on an ACK
        triggers the window decrease without a retransmission (RFC 2481),
        at most once per window of data.
    limited_transmit:
        RFC 3042: send one new packet per duplicate ACK before the fast
        retransmit threshold, keeping the ACK clock alive for small
        windows (Appendix A cites this among the mechanisms placing real
        TCPs between the two analytic bounds).
    """

    DUPACK_THRESHOLD = 3
    MAX_BACKOFF = 64

    @checked
    def __init__(
        self,
        sim: Simulator,
        rule: Optional[WindowRule] = None,
        packet_size: PositiveBytes = 1000,
        max_packets: Optional[int] = None,
        initial_ssthresh: float = 1e9,
        min_rto: PositiveSeconds = 0.2,
        max_rto: PositiveSeconds = 60.0,
        initial_rto: PositiveSeconds = 1.0,
        max_cwnd: Optional[float] = None,
        ecn: bool = False,
        limited_transmit: bool = False,
    ):
        super().__init__(sim, packet_size, max_packets)
        self.rule = rule if rule is not None else tcp_rule(0.5)
        self.cwnd = 1.0
        self.ssthresh = initial_ssthresh
        self.max_cwnd = max_cwnd
        # Sequence state (in packets).
        self.snd_una = 0
        self.snd_nxt = 0
        self._dupacks = 0
        self._in_recovery = False
        self._recover = -1
        # RTT estimation (Jacobson/Karels).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.rto = initial_rto
        self._backoff = 1
        self._rto_timer = Timer(sim, self._on_timeout)
        # ECN and Limited Transmit options.
        self.ecn = ecn
        self.limited_transmit = limited_transmit
        self._ecn_reacted_until = -1  # react to ECE at most once per window
        # Statistics (telemetry channels; adopted as flow.<id>.* when
        # a recorder is capturing).
        self.fast_retransmits = 0
        self.loss_events = 0
        self.ecn_reactions = 0
        self._cwnd_probe = SeriesProbe("cwnd")
        self._timeout_events = CounterProbe("timeouts")
        self.probes["cwnd"] = self._cwnd_probe
        self.probes["timeouts"] = self._timeout_events

    # Lifecycle -----------------------------------------------------------------

    def _begin(self) -> None:
        self._try_send()

    def _halt(self) -> None:
        self._rto_timer.cancel()

    # Sending -------------------------------------------------------------------

    def window(self) -> float:
        """Usable window: inflated by dupacks while recovering (Reno)."""
        if self._in_recovery:
            return self.ssthresh + self._dupacks
        if self.limited_transmit and 0 < self._dupacks < self.DUPACK_THRESHOLD:
            # RFC 3042: one new packet per early duplicate ACK.
            return self.cwnd + self._dupacks
        return self.cwnd

    def inflight(self) -> int:
        return self.snd_nxt - self.snd_una

    def _try_send(self) -> None:
        if not self.running:
            return
        # Once per ACK: window() only when it can differ from cwnd, and
        # inflight() written out.
        if self._in_recovery or self._dupacks:
            limit = int(self.window())
        else:
            limit = int(self.cwnd)
        max_packets = self.max_packets
        while self.snd_nxt - self.snd_una < limit:
            if max_packets is not None and self.snd_nxt >= max_packets:
                break
            self._send_data(self.snd_nxt)
            self.snd_nxt += 1
        if self.snd_nxt > self.snd_una and not self._rto_timer.pending:
            self._arm_timer()

    def _send_data(self, seq: int) -> None:
        self._transmit(DATA, seq, self.packet_size, ect=self.ecn)
        self.packets_sent += 1

    def _arm_timer(self) -> None:
        self._rto_timer.schedule(min(self.rto * self._backoff, self.max_rto))

    # ACK processing --------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if not self.running or packet.kind != ACK:
            return
        if self.ecn and packet.ece:
            self._handle_ecn_echo()
        if packet.ack_seq > self.snd_una:
            self._handle_new_ack(packet)
        elif self.snd_nxt > self.snd_una:
            self._handle_dupack()
        self._try_send()

    def _handle_new_ack(self, packet: Packet) -> None:
        newly_acked = packet.ack_seq - self.snd_una
        self.snd_una = packet.ack_seq
        # After a go-back-N rollback the cumulative ACK can jump past the
        # retransmission point (receiver-buffered data); never resend below
        # the highest acknowledged sequence.
        if self.snd_nxt < self.snd_una:
            self.snd_nxt = self.snd_una
        self._backoff = 1
        if packet.echo > 0 and not self._in_recovery:
            self._sample_rtt(self.sim.now - packet.echo)
        if self._in_recovery:
            if self.snd_una > self._recover:
                self._in_recovery = False
                self._dupacks = 0
                self.cwnd = max(self.ssthresh, 1.0)
            else:
                # NewReno partial ACK: recover the next hole, stay in recovery.
                self._send_data(self.snd_una)
                self._arm_timer()
                return
        else:
            self._dupacks = 0
            self._open_window(newly_acked)
        if self.max_packets is not None and self.snd_una >= self.max_packets:
            self._rto_timer.cancel()
            self._complete()
            return
        if self.snd_nxt > self.snd_una:
            self._arm_timer()
        else:
            self._rto_timer.cancel()

    def _open_window(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += self.rule.increase_per_ack(self.cwnd)
        if self.max_cwnd is not None:
            self.cwnd = min(self.cwnd, self.max_cwnd)
        if self.recorded:
            self._cwnd_probe.record(self.sim.now, self.cwnd)

    def _handle_ecn_echo(self) -> None:
        """RFC 2481 response: decrease once per window of data, without a
        retransmission (nothing was lost)."""
        if self._in_recovery or self.snd_una <= self._ecn_reacted_until:
            return
        self.ecn_reactions += 1
        self.loss_events += 1
        self.cwnd = max(self.rule.decrease(self.cwnd), 1.0)
        self.ssthresh = self.cwnd
        self._ecn_reacted_until = self.snd_nxt - 1
        if self.recorded:
            self._cwnd_probe.record(self.sim.now, self.cwnd)

    def _handle_dupack(self) -> None:
        self._dupacks += 1
        if (
            not self._in_recovery
            and self._dupacks == self.DUPACK_THRESHOLD
            and self.snd_una > self._recover
        ):
            # The NewReno "recover" guard: duplicate ACKs caused by our own
            # go-back-N retransmissions after a timeout must not trigger a
            # second window reduction for the same loss window.
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.loss_events += 1
        self.fast_retransmits += 1
        self.ssthresh = max(self.rule.decrease(self.cwnd), 1.0)
        self._in_recovery = True
        self._recover = self.snd_nxt - 1
        self._send_data(self.snd_una)  # fast retransmit
        self._arm_timer()
        if self.recorded:
            self._cwnd_probe.record(self.sim.now, self.ssthresh)

    # Timeout ---------------------------------------------------------------------

    def _on_timeout(self) -> None:
        if not self.running or self.inflight() == 0:
            return
        self._timeout_events.increment(self.sim.now)
        self.loss_events += 1
        self.ssthresh = max(self.rule.decrease(self.cwnd), 1.0)
        self.cwnd = 1.0
        self._in_recovery = False
        self._dupacks = 0
        self._backoff = min(self._backoff * 2, self.MAX_BACKOFF)
        # Go-back-N: without SACK, a timeout restarts transmission from the
        # last cumulative ACK.  Receiver-buffered segments make the
        # cumulative ACK jump over filled holes, so mostly holes are
        # actually re-sent; recover marks the pre-rollback maximum so the
        # duplicate ACKs this causes cannot trigger fast retransmit again.
        self._recover = self.snd_nxt - 1
        self.snd_nxt = self.snd_una + 1
        self._send_data(self.snd_una)
        self._arm_timer()
        if self.recorded:
            self._cwnd_probe.record(self.sim.now, self.cwnd)

    # RTT estimation ----------------------------------------------------------------

    def _sample_rtt(self, sample: Seconds) -> None:
        if sample <= 0 or self._backoff > 1:
            return  # Karn: ignore samples that may belong to retransmissions
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            err = sample - self.srtt
            self.srtt += 0.125 * err
            self.rttvar += 0.25 * (abs(err) - self.rttvar)
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, self.min_rto), self.max_rto)

    # Introspection -------------------------------------------------------------------

    @property
    def timeouts(self) -> int:
        return self._timeout_events.count

    @property
    def cwnd_trace(self) -> list[tuple[float, float]]:
        """(time, window) samples taken at every window change."""
        return self._samples(self._cwnd_probe)


class TcpSink(Receiver):
    """TCP receiver: cumulative ACKs, optional delayed ACKs and ECN echo.

    The paper models TCP *without* delayed acknowledgments, so
    ``delayed_acks`` defaults off; with it on, every second in-order packet
    is ACKed (with a 200 ms standalone-ACK timer), halving the ACK clock
    rate as real stacks do.

    ECN: a CE mark on an arriving data packet sets ECN-Echo on the next
    ACK.  We echo once per mark rather than running the full RFC 3168
    ECE/CWR handshake — with per-packet ACKs and a sender that reacts at
    most once per window, the simplification is behavior-preserving.
    """

    DELAYED_ACK_TIMEOUT = 0.2

    @checked
    def __init__(
        self,
        sim: Simulator,
        packet_size: PositiveBytes = 1000,
        delayed_acks: bool = False,
    ):
        super().__init__(sim, packet_size)
        self.rcv_nxt = 0
        self._out_of_order: set[int] = set()
        self.delayed_acks = delayed_acks
        self._unacked_arrivals = 0
        self._pending_echo = -1.0
        self._pending_ece = False
        self._delack_timer = Timer(sim, self._flush_ack)
        self.acks_sent = 0

    def receive(self, packet: Packet) -> None:
        if packet.kind != DATA:
            return
        in_order = False
        if packet.seq == self.rcv_nxt:
            in_order = True
            self.rcv_nxt += 1
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
            self._deliver(packet)
        elif packet.seq > self.rcv_nxt:
            if packet.seq not in self._out_of_order:
                self._out_of_order.add(packet.seq)
                self._deliver(packet)
        # else: duplicate of already-delivered data; just re-ACK.
        if packet.ce:
            self._pending_ece = True
        self._pending_echo = packet.sent_at
        if self.delayed_acks and in_order and not self._out_of_order:
            # Delay in-order ACKs: every second packet, or a 200 ms timer.
            self._unacked_arrivals += 1
            if self._unacked_arrivals >= 2:
                self._flush_ack()
            elif not self._delack_timer.pending:
                self._delack_timer.schedule(self.DELAYED_ACK_TIMEOUT)
            return
        # Out-of-order data (dupacks) and the non-delayed mode ACK at once.
        self._flush_ack()

    def _flush_ack(self) -> None:
        if self.delayed_acks:
            self._delack_timer.cancel()
        self._unacked_arrivals = 0
        self._transmit(
            ACK,
            self.rcv_nxt,
            ACK_SIZE,
            ack_seq=self.rcv_nxt,
            echo=self._pending_echo,
            ece=self._pending_ece,
        )
        self._pending_ece = False
        self.acks_sent += 1


@checked
def new_tcp_flow(
    sim: Simulator,
    rule: Optional[WindowRule] = None,
    packet_size: PositiveBytes = 1000,
    max_packets: Optional[int] = None,
    delayed_acks: bool = False,
    **sender_kwargs,
) -> tuple[TcpSender, TcpSink]:
    """Convenience constructor for a sender/sink pair (not yet attached)."""
    sender = TcpSender(
        sim, rule=rule, packet_size=packet_size, max_packets=max_packets, **sender_kwargs
    )
    sink = TcpSink(sim, packet_size, delayed_acks=delayed_acks)
    return sender, sink
