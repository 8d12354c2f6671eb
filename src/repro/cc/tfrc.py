"""TFRC: equation-based TCP-Friendly Rate Control (Floyd et al., SIGCOMM 2000).

The receiver measures the *loss event rate* as the inverse of the weighted
average of the most recent ``k`` loss intervals (packets between loss
events) and reports it, with the receive rate, once per RTT.  The sender
feeds the loss event rate into the Padhye TCP response function to compute
its allowed sending rate, and transmits on a timer at that rate.

TFRC(k) in the paper is the number of loss intervals averaged; the default
deployment configuration corresponds roughly to TFRC(6), and the paper
sweeps k from 1 to 256.

Two options studied by the paper are implemented:

* ``conservative`` — the paper's Section 4.1.1 *self-clocking* extension:
  for the RTT following a reported loss the send rate is capped at the
  reported receive rate, and otherwise (outside slow-start) at ``C`` times
  the receive rate (C = 1.1 in the paper's experiments).  This restores the
  packet-conservation principle and repairs TFRC(256)'s stabilization cost.
* ``history_discounting`` — RFC 3448 section 5.5: when the current
  (lossless) interval is much longer than the average, older intervals are
  discounted so the rate rises faster in a time of plenty.  The paper turns
  this *off* for the Figure 13 utilization study.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cc.base import ACK_SIZE, Receiver, Sender
from repro.cc.equations import padhye_rate_pps
from repro.contracts import (
    NonNegRate,
    NonNegSeconds,
    PositiveBytes,
    PositiveSeconds,
    Probability,
    checked,
)
from repro.net.packet import DATA, FEEDBACK, Packet
from repro.sim.engine import Simulator, Timer
from repro.telemetry.probes import SeriesProbe
from repro.units import Seconds

__all__ = ["TfrcReport", "TfrcReceiver", "TfrcSender", "new_tfrc_flow", "interval_weights"]

# Maximum back-off interval: minimum rate of one packet per T_MBI seconds.
T_MBI = 64.0


def interval_weights(n: int) -> list[float]:
    """RFC 3448 loss-interval weights generalized to n intervals.

    The first half (most recent intervals) get weight 1; the rest decay
    linearly.  For n = 8 this is (1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2).
    """
    if n < 1:
        raise ValueError("need at least one interval")
    half = n // 2
    weights = []
    for i in range(n):
        if i < half:
            weights.append(1.0)
        else:
            weights.append(1.0 - (i - half + 1) / (n - half + 1.0))
    return weights


class TfrcReport:
    """Receiver feedback: loss event rate, receive rate, RTT echo."""

    __slots__ = ("p", "recv_rate_bps", "loss_reported", "echo", "hold")

    @checked
    def __init__(
        self,
        p: Probability,
        recv_rate_bps: NonNegRate,
        loss_reported: bool,
        echo: Seconds,
        hold: NonNegSeconds,
    ):
        self.p = p
        self.recv_rate_bps = recv_rate_bps
        self.loss_reported = loss_reported
        self.echo = echo
        self.hold = hold


class LossHistory:
    """Loss-interval bookkeeping on the receiver side.

    An interval is the count of packets between the first losses of
    consecutive loss events; losses within one RTT of a loss event's start
    belong to the same event.
    """

    def __init__(self, n_intervals: int, history_discounting: bool = True):
        self.weights = interval_weights(n_intervals)
        self.n = n_intervals
        self.history_discounting = history_discounting
        self.closed: list[int] = []  # most recent first
        self.open_interval = 0
        self.loss_events = 0
        self._event_open_until = -math.inf

    def on_packet(self) -> None:
        self.open_interval += 1

    def on_loss(self, now: Seconds, rtt: Seconds) -> bool:
        """Record a lost packet; returns True if it starts a new loss event."""
        if now < self._event_open_until:
            return False  # same loss event
        self._event_open_until = now + rtt
        self.loss_events += 1
        if self.loss_events > 1:
            self.closed.insert(0, self.open_interval)
            del self.closed[self.n :]
        self.open_interval = 0
        return True

    def _weighted_average(
        self, intervals: list[float], multipliers: Optional[list[float]] = None
    ) -> float:
        used = min(len(intervals), self.n)
        if multipliers is None:
            multipliers = [1.0] * used
        total = 0.0
        norm = 0.0
        for i in range(used):
            weight = self.weights[i] * multipliers[i]
            total += weight * intervals[i]
            norm += weight
        return total / norm if norm > 0 else 0.0

    def average_interval(self) -> float:
        """Weighted average loss interval, in packets (0 when no history).

        Computed both with and without the current open interval, taking the
        larger (RFC 3448): a long lossless run should raise the average but
        a short one must not drag it down.  With history discounting, a very
        long open interval additionally shrinks the older intervals'
        *weights* (RFC 3448 section 5.5), so the time of plenty dominates
        the estimate sooner.
        """
        if not self.closed:
            return 0.0
        avg_closed = self._weighted_average([float(s) for s in self.closed])
        with_open = [float(self.open_interval)] + [float(s) for s in self.closed]
        multipliers = None
        if self.history_discounting and avg_closed > 0 and (
            self.open_interval > 2.0 * avg_closed
        ):
            discount = max(0.25, 2.0 * avg_closed / self.open_interval)
            multipliers = [1.0] + [discount] * (len(with_open) - 1)
        avg_with_open = self._weighted_average(with_open, multipliers)
        return max(avg_closed, avg_with_open)

    @checked
    def loss_event_rate(self) -> Probability:
        avg = self.average_interval()
        if avg <= 0:
            return 0.0
        return min(1.0, 1.0 / avg)


class TfrcReceiver(Receiver):
    """TFRC receiver: loss detection, interval averaging, per-RTT feedback."""

    @checked
    def __init__(
        self,
        sim: Simulator,
        n_intervals: int = 6,
        packet_size: PositiveBytes = 1000,
        history_discounting: bool = True,
        initial_rtt: PositiveSeconds = 0.5,
    ):
        super().__init__(sim, packet_size)
        self.history = LossHistory(n_intervals, history_discounting)
        self.rtt_estimate = initial_rtt  # piggybacked on data packets
        self.expected_seq = 0
        self._bytes_since_feedback = 0
        self._loss_since_feedback = False
        self._last_feedback_at: Optional[float] = None
        self._last_data_sent_at = -1.0
        self._last_data_arrival = -1.0
        self._feedback_timer = Timer(sim, self._send_feedback)

    def receive(self, packet: Packet) -> None:
        if packet.kind != DATA:
            return
        if isinstance(packet.info, float):
            self.rtt_estimate = packet.info
        if packet.seq > self.expected_seq:
            # The gap is lost; each lost packet may start a loss event.
            for _ in range(packet.seq - self.expected_seq):
                if self.history.on_loss(self.sim.now, self.rtt_estimate):
                    self._loss_since_feedback = True
            self.expected_seq = packet.seq + 1
        elif packet.seq == self.expected_seq:
            self.expected_seq += 1
        else:
            return  # late duplicate/reordered: already accounted as lost
        self.history.on_packet()
        self._bytes_since_feedback += packet.size
        self._last_data_sent_at = packet.sent_at
        self._last_data_arrival = self.sim.now
        self._deliver(packet)
        if self._last_feedback_at is None:
            self._send_feedback()
        elif self._loss_since_feedback and not self._recently_sent():
            # Expedite feedback when a loss event has just started.
            self._send_feedback()

    def _recently_sent(self) -> bool:
        assert self._last_feedback_at is not None
        return self.sim.now - self._last_feedback_at < self.rtt_estimate / 2.0

    def _send_feedback(self) -> None:
        if self._last_data_arrival < 0:
            return
        if self._bytes_since_feedback == 0:
            # RFC 3448: no feedback without data.  Reporting a zero receive
            # rate here would wrongly collapse a slow sender's rate via the
            # 2 * X_recv cap; wait for the next packet instead.
            self._feedback_timer.schedule(self.rtt_estimate)
            return
        now = self.sim.now
        elapsed = (
            now - self._last_feedback_at
            if self._last_feedback_at is not None
            else self.rtt_estimate
        )
        elapsed = max(elapsed, 1e-9)
        recv_rate = self._bytes_since_feedback * 8.0 / elapsed
        report = TfrcReport(
            p=self.history.loss_event_rate(),
            recv_rate_bps=recv_rate,
            loss_reported=self._loss_since_feedback,
            echo=self._last_data_sent_at,
            hold=now - self._last_data_arrival,
        )
        self._transmit(FEEDBACK, 0, ACK_SIZE, info=report)
        self._last_feedback_at = now
        self._bytes_since_feedback = 0
        self._loss_since_feedback = False
        self._feedback_timer.schedule(self.rtt_estimate)


class TfrcSender(Sender):
    """TFRC sender: equation-driven rate control.

    Parameters
    ----------
    conservative:
        Enable the paper's self-clocking extension (Section 4.1.1).
    conservative_c:
        The C constant capping the no-loss send rate at C x receive rate
        (paper: 1.1; the ns-2 default was 1.5).
    """

    @checked
    def __init__(
        self,
        sim: Simulator,
        packet_size: PositiveBytes = 1000,
        max_packets: Optional[int] = None,
        initial_rtt: PositiveSeconds = 0.5,
        conservative: bool = False,
        conservative_c: float = 1.1,
        oscillation_prevention: bool = False,
    ):
        super().__init__(sim, packet_size, max_packets)
        if initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if conservative_c < 1.0:
            raise ValueError("conservative C must be >= 1")
        self.conservative = conservative
        self.conservative_c = conservative_c
        # RFC 3448 section 4.5 (optional, off in the paper): scale the
        # instantaneous rate by R_sqmean / R_sample so a building queue
        # (rising RTT) throttles the sender before losses do, damping
        # rate/queue oscillations.
        self.oscillation_prevention = oscillation_prevention
        self._rtt_sqmean: Optional[float] = None
        self.srtt: Optional[float] = None
        self._initial_rtt = initial_rtt
        self.rate_bps = packet_size * 8.0 / initial_rtt  # one packet per RTT
        self.x_recv_bps = 0.0
        self.slow_start = True
        self.p = 0.0
        self._seq = 0
        self._send_timer = Timer(sim, self._send_next)
        self._no_feedback_timer = Timer(sim, self._no_feedback_expired)
        self._rate_probe = SeriesProbe("rate")
        self.probes["rate"] = self._rate_probe
        self.feedback_count = 0

    # Lifecycle -----------------------------------------------------------------

    def _begin(self) -> None:
        self._record_rate()
        self._no_feedback_timer.schedule(2.0)  # generous pre-feedback timeout
        self._send_next()

    def _halt(self) -> None:
        self._send_timer.cancel()
        self._no_feedback_timer.cancel()

    # Transmission ----------------------------------------------------------------

    @property
    @checked
    def rtt(self) -> PositiveSeconds:
        return self.srtt if self.srtt is not None else self._initial_rtt

    @checked
    def _min_rate_bps(self) -> NonNegRate:
        return self.packet_size * 8.0 / T_MBI

    def _record_rate(self) -> None:
        if self.recorded:
            self._rate_probe.record(self.sim.now, self.rate_bps)

    @property
    def rate_trace(self) -> list[tuple[float, float]]:
        return self._samples(self._rate_probe)

    def _send_next(self) -> None:
        if not self.running:
            return
        if self.max_packets is not None and self._seq >= self.max_packets:
            return
        # Data packets carry the sender's RTT estimate, which the receiver
        # needs to group losses into loss events (RFC 3448).
        self._transmit(DATA, self._seq, self.packet_size, info=self.rtt)
        self._seq += 1
        self.packets_sent += 1
        self._send_timer.schedule(self.packet_size * 8.0 / self.rate_bps)

    # Feedback processing -------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if not self.running or packet.kind != FEEDBACK:
            return
        report = packet.info
        if not isinstance(report, TfrcReport):
            return
        self.feedback_count += 1
        self._update_rtt(packet, report)
        self.p = report.p
        self.x_recv_bps = report.recv_rate_bps
        self._update_rate(report)
        self._record_rate()
        # No-feedback timer: RFC 3448 uses max(4 RTT, 2s/X).
        timeout = max(4.0 * self.rtt, 2.0 * self.packet_size * 8.0 / self.rate_bps)
        self._no_feedback_timer.schedule(timeout)

    def _update_rtt(self, packet: Packet, report: TfrcReport) -> None:
        if report.echo <= 0:
            return
        sample = self.sim.now - report.echo - report.hold
        if sample <= 0:
            return
        if self.srtt is None:
            self.srtt = sample
        else:
            self.srtt = 0.9 * self.srtt + 0.1 * sample
        if self.oscillation_prevention:
            root = math.sqrt(sample)
            if self._rtt_sqmean is None:
                self._rtt_sqmean = root
            else:
                self._rtt_sqmean = 0.9 * self._rtt_sqmean + 0.1 * root
            self._last_rtt_sample = sample

    def _update_rate(self, report: TfrcReport) -> None:
        recv = max(report.recv_rate_bps, self._min_rate_bps())
        if report.p > 0 and self.slow_start:
            self.slow_start = False
        if self.slow_start:
            # No loss yet: double per feedback, capped at twice the receive
            # rate (TFRC's emulation of TCP slow-start).
            self.rate_bps = max(
                min(2.0 * self.rate_bps, 2.0 * recv), self._min_rate_bps()
            )
            return
        calc = self._equation_rate_bps(max(report.p, 1e-9))
        if self.conservative:
            if report.loss_reported:
                allowed = min(calc, recv)
            else:
                allowed = min(calc, self.conservative_c * recv)
        else:
            allowed = min(calc, 2.0 * recv)
        if (
            self.oscillation_prevention
            and self._rtt_sqmean is not None
            and getattr(self, "_last_rtt_sample", 0) > 0
        ):
            # RFC 3448 4.5: X_inst = X * R_sqmean / sqrt(R_sample).
            allowed *= self._rtt_sqmean / math.sqrt(self._last_rtt_sample)
        self.rate_bps = max(allowed, self._min_rate_bps())

    @checked
    def _equation_rate_bps(self, p: Probability) -> NonNegRate:
        pps = padhye_rate_pps(p, self.rtt, rto_s=4.0 * self.rtt)
        return pps * self.packet_size * 8.0

    def _no_feedback_expired(self) -> None:
        if not self.running:
            return
        # Halve the allowed rate (RFC 3448 section 4.4).
        self.rate_bps = max(self.rate_bps / 2.0, self._min_rate_bps())
        self._record_rate()
        timeout = max(4.0 * self.rtt, 2.0 * self.packet_size * 8.0 / self.rate_bps)
        self._no_feedback_timer.schedule(timeout)


@checked
def new_tfrc_flow(
    sim: Simulator,
    n_intervals: int = 6,
    packet_size: PositiveBytes = 1000,
    conservative: bool = False,
    history_discounting: bool = True,
    oscillation_prevention: bool = False,
    **sender_kwargs,
) -> tuple[TfrcSender, TfrcReceiver]:
    """Convenience constructor for a TFRC(k) pair (not attached)."""
    sender = TfrcSender(
        sim,
        packet_size=packet_size,
        conservative=conservative,
        oscillation_prevention=oscillation_prevention,
        **sender_kwargs,
    )
    receiver = TfrcReceiver(
        sim,
        n_intervals=n_intervals,
        packet_size=packet_size,
        history_discounting=history_discounting,
    )
    return sender, receiver
