"""TEAR: TCP Emulation At Receivers (Rhee, Ozdemir & Yi, 2000).

TEAR moves TCP's window computation to the *receiver*: on every arriving
packet the receiver updates an emulated congestion window exactly as a TCP
sender would (slow-start, congestion avoidance, multiplicative decrease on
loss events), but instead of using the window to clock transmissions it
divides a smoothed window average by the RTT and feeds that *rate* back to
the sender.  The sender simply transmits at the reported rate.

The smoothing is an average of the emulated window over recent congestion
epochs (rounds), which is what makes TEAR TCP-compatible yet
slowly-responsive under static conditions.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.cc.base import ACK_SIZE, Receiver, Sender
from repro.net.packet import DATA, FEEDBACK, Packet
from repro.sim.engine import Simulator, Timer
from repro.telemetry.probes import SeriesProbe
from repro.contracts import NonNegRate, PositiveBytes, PositiveSeconds, Probability, checked
from repro.units import Seconds

__all__ = ["TearReceiver", "TearSender", "new_tear_flow"]


class TearReceiver(Receiver):
    """Receiver-side TCP window emulation plus epoch-averaged rate feedback.

    Parameters
    ----------
    epochs:
        Number of recent rounds over which the emulated window is averaged
        (the smoothing depth; higher = more slowly responsive).
    beta:
        Multiplicative decrease factor applied to the emulated window per
        loss event (TCP-equivalent: 0.5).
    """

    @checked
    def __init__(
        self,
        sim: Simulator,
        epochs: int = 8,
        beta: Probability = 0.5,
        packet_size: PositiveBytes = 1000,
        initial_rtt: PositiveSeconds = 0.5,
    ):
        super().__init__(sim, packet_size)
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < beta < 1:
            raise ValueError("beta must be in (0, 1)")
        self.epochs = epochs
        self.beta = beta
        self.cwnd = 1.0
        self.ssthresh = 1e9
        self.rtt_estimate = initial_rtt
        self.expected_seq = 0
        # Per-round cwnd snapshots (algorithm state for the epoch mean).
        self._epoch_windows: deque[float] = deque(maxlen=epochs)
        self._loss_event_until = -1.0
        self._last_data_sent_at = -1.0
        self._round_timer = Timer(sim, self._end_round)
        self._round_started = False

    # Window emulation ----------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if packet.kind != DATA:
            return
        if isinstance(packet.info, float):
            self.rtt_estimate = packet.info
        if not self._round_started:
            self._round_started = True
            self._round_timer.schedule(self.rtt_estimate)
        if packet.seq > self.expected_seq:
            self._on_loss()
            self.expected_seq = packet.seq + 1
        elif packet.seq == self.expected_seq:
            self.expected_seq += 1
        else:
            return
        self._grow_window()
        self._last_data_sent_at = packet.sent_at
        self._deliver(packet)

    def _grow_window(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def _on_loss(self) -> None:
        now = self.sim.now
        if now < self._loss_event_until:
            return  # same loss event
        self._loss_event_until = now + self.rtt_estimate
        self.cwnd = max(self.cwnd * (1.0 - self.beta), 1.0)
        self.ssthresh = self.cwnd

    # Rate feedback ---------------------------------------------------------------

    def _end_round(self) -> None:
        self._epoch_windows.append(self.cwnd)
        rate_bps = self.smoothed_rate_bps()
        self._transmit(
            FEEDBACK, 0, ACK_SIZE, echo=self._last_data_sent_at, info=rate_bps
        )
        self._round_timer.schedule(self.rtt_estimate)

    @checked
    def smoothed_rate_bps(self) -> NonNegRate:
        if not self._epoch_windows:
            return self.packet_size * 8.0 / self.rtt_estimate
        mean_window = sum(self._epoch_windows) / len(self._epoch_windows)
        return mean_window * self.packet_size * 8.0 / self.rtt_estimate


class TearSender(Sender):
    """Transmits at the rate dictated by the TEAR receiver."""

    @checked
    def __init__(
        self,
        sim: Simulator,
        packet_size: PositiveBytes = 1000,
        max_packets: Optional[int] = None,
        initial_rtt: PositiveSeconds = 0.5,
    ):
        super().__init__(sim, packet_size, max_packets)
        self.srtt: Optional[float] = None
        self._initial_rtt = initial_rtt
        self.rate_bps = packet_size * 8.0 / initial_rtt
        self._seq = 0
        self._send_timer = Timer(sim, self._send_next)
        self._rate_probe = SeriesProbe("rate")
        self.probes["rate"] = self._rate_probe

    @property
    def rtt(self) -> Seconds:
        return self.srtt if self.srtt is not None else self._initial_rtt

    @property
    def rate_trace(self) -> list[tuple[float, float]]:
        return self._samples(self._rate_probe)

    def _begin(self) -> None:
        if self.recorded:
            self._rate_probe.record(self.sim.now, self.rate_bps)
        self._send_next()

    def _halt(self) -> None:
        self._send_timer.cancel()

    def _send_next(self) -> None:
        if not self.running:
            return
        if self.max_packets is not None and self._seq >= self.max_packets:
            return
        self._transmit(DATA, self._seq, self.packet_size, info=self.rtt)
        self._seq += 1
        self.packets_sent += 1
        self._send_timer.schedule(self.packet_size * 8.0 / self.rate_bps)

    def receive(self, packet: Packet) -> None:
        if not self.running or packet.kind != FEEDBACK:
            return
        if packet.echo > 0:
            sample = self.sim.now - packet.echo
            if sample > 0:
                self.srtt = sample if self.srtt is None else (
                    0.875 * self.srtt + 0.125 * sample
                )
        if isinstance(packet.info, float) and packet.info > 0:
            self.rate_bps = packet.info
            if self.recorded:
                self._rate_probe.record(self.sim.now, self.rate_bps)


@checked
def new_tear_flow(
    sim: Simulator,
    epochs: int = 8,
    beta: Probability = 0.5,
    packet_size: PositiveBytes = 1000,
    **sender_kwargs,
) -> tuple[TearSender, TearReceiver]:
    """Convenience constructor for a TEAR pair (not attached)."""
    sender = TearSender(sim, packet_size=packet_size, **sender_kwargs)
    receiver = TearReceiver(sim, epochs=epochs, beta=beta, packet_size=packet_size)
    return sender, receiver
