"""Extension: measuring responsiveness directly (Section 3's metric).

The paper defines **responsiveness** as the number of RTTs of persistent
congestion — one packet loss per round-trip time — until the sender halves
its sending rate: 1 RTT for TCP, and "the responsiveness of the currently
proposed TFRC schemes tends to vary between 4 and 6 round-trip times".

The measurement here follows the definition exactly: a flow is first held
at a steady operating point by mild periodic loss (so the control variable
is finite and stationary), then the loss process switches to one loss per
RTT, and we count RTTs until the sender's control variable (congestion
window for window-based senders, allowed rate for rate-based ones) falls
to half its value at the onset.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.experiments.jobs import Job, indexed, job, scenario
from repro.experiments.protocols import Protocol, sqrt, tcp, tfrc
from repro.experiments.runner import Table
from repro.net.droppers import Dropper, PeriodicDropper, TimedDropper
from repro.net.packet import Packet
from repro.net.paths import single_path
from repro.sim.engine import Simulator

__all__ = [
    "SwitchDropper",
    "aggressiveness",
    "jobs",
    "measure_aggressiveness_pkts_per_rtt",
    "measure_responsiveness_rtts",
    "reduce",
    "responsiveness",
]


class SwitchDropper(Dropper):
    """Delegate to one dropper before ``t_switch`` and another after."""

    def __init__(self, t_switch: float, before: Dropper, after: Dropper, clock):
        super().__init__(clock)
        self.t_switch = t_switch
        self.before = before
        self.after = after

    def should_drop(self, packet: Packet) -> bool:
        active = self.before if self._clock() < self.t_switch else self.after
        return active.should_drop(packet)


def _control_variable(sender) -> float:
    """The sender's rate-determining state: cwnd or allowed rate."""
    if hasattr(sender, "cwnd"):
        return float(sender.cwnd)
    if hasattr(sender, "rate_bps"):
        return float(sender.rate_bps)
    if hasattr(sender, "w"):
        return float(sender.w)
    raise TypeError(f"cannot find a control variable on {type(sender)!r}")


def measure_responsiveness_rtts(
    protocol: Protocol,
    rtt_s: float = 0.05,
    warmup_s: float = 40.0,
    observe_rtts: int = 400,
    bandwidth_bps: float = 1e7,
    steady_loss_period: int = 500,
) -> Optional[float]:
    """RTTs of one-loss-per-RTT congestion until the control halves.

    Returns None when the sender has not halved within ``observe_rtts``
    (effectively unresponsive on this timescale).
    """
    sim = Simulator()
    sender, receiver = protocol.make(sim)
    clock = lambda: sim.now  # noqa: E731 - tiny closure over the sim
    dropper = SwitchDropper(
        warmup_s,
        before=PeriodicDropper(steady_loss_period),
        after=TimedDropper(rtt_s, clock=clock, start_at=warmup_s),
        clock=clock,
    )
    single_path(
        sim, sender, receiver, rtt_s=rtt_s, bandwidth_bps=bandwidth_bps,
        dropper=dropper,
    )
    sender.start()
    sim.run(until=warmup_s)
    baseline = _control_variable(sender)
    if baseline <= 0:
        return None
    # Sample the control variable each RTT of the congestion period.
    samples: list[float] = []

    def sample() -> None:
        samples.append(_control_variable(sender))

    for k in range(1, observe_rtts + 1):
        sim.at(warmup_s + k * rtt_s, sample)
    sim.run(until=warmup_s + (observe_rtts + 1) * rtt_s)
    for k, value in enumerate(samples, start=1):
        if value <= baseline / 2.0:
            return float(k)
    return None


@scenario("responsiveness")
def responsiveness(jb: Job) -> Optional[float]:
    """This module's table: RTTs of persistent congestion until the rate
    halves, or None when it never does within ``observe_rtts``."""
    return measure_responsiveness_rtts(jb.protocol, observe_rtts=jb.param("observe_rtts"))


def default_protocols() -> list[tuple[str, Protocol, float]]:
    return [
        ("TCP(1/2)", tcp(2), 1.0),
        ("TCP(1/8)", tcp(8), 6.0),
        ("SQRT(1/2)", sqrt(2), math.nan),
        ("TFRC(6)", tfrc(6), 5.0),
        ("TFRC(256)", tfrc(256), math.nan),
    ]


def jobs(scale: str = "fast", observe_rtts: Optional[int] = None) -> list[Job]:
    observe = (
        observe_rtts
        if observe_rtts is not None
        else (400 if scale == "fast" else 1000)
    )
    return indexed(
        job(
            "ext_responsiveness",
            "responsiveness",
            protocol=protocol,
            params={"observe_rtts": int(observe)},
            scale=scale,
            tags={"label": name, "reference": reference},
        )
        for name, protocol, reference in default_protocols()
    )


def reduce(results) -> Table:
    table = Table(
        title="Responsiveness: RTTs of one-loss-per-RTT congestion to halve the rate",
        columns=["protocol", "measured_rtts", "paper_reference"],
        notes=(
            "Paper (Section 3): TCP halves in 1 RTT; proposed TFRC variants "
            "in 4-6 RTTs; AIMD(b) needs ceil(log(.5)/log(1-b)) loss events; "
            "extreme variants do not halve on hundreds of RTTs ('-').  The "
            "measured values include ~2-4 RTTs of loss-detection (three "
            "dupacks), recovery-exit and sampling latency on top of the "
            "idealized decision count."
        ),
    )
    for result in results:
        measured = result.value
        table.add(
            result.job.tag("label"),
            measured if measured is not None else math.nan,
            result.job.tag("reference"),
        )
    return table


def measure_aggressiveness_pkts_per_rtt(
    protocol: Protocol,
    rtt_s: float = 0.05,
    warmup_s: float = 40.0,
    observe_rtts: int = 60,
    bandwidth_bps: float = 1e7,
    steady_loss_period: int = 200,
) -> float:
    """Maximum control-variable increase in one RTT once congestion ends.

    The paper (via Floyd et al.'s companion report) defines aggressiveness
    as the maximum increase in the sending rate in one RTT absent
    congestion: ``a`` packets/RTT for AIMD(a, b), and 0.14-0.28 packets/sec
    for TFRC depending on history discounting.  Here the flow is held at a
    steady point by periodic loss, the loss stops, and the largest per-RTT
    increase of the control variable (in packets per RTT) over the
    following RTTs is reported.
    """
    sim = Simulator()
    sender, receiver = protocol.make(sim)
    clock = lambda: sim.now  # noqa: E731 - tiny closure over the sim
    dropper = SwitchDropper(
        warmup_s,
        before=PeriodicDropper(steady_loss_period),
        after=PeriodicDropper(10**9),  # congestion ends
        clock=clock,
    )
    single_path(
        sim, sender, receiver, rtt_s=rtt_s, bandwidth_bps=bandwidth_bps,
        dropper=dropper,
    )
    sender.start()
    sim.run(until=warmup_s)
    packet_bits = getattr(sender, "packet_size", 1000) * 8.0

    def in_packets_per_rtt() -> float:
        value = _control_variable(sender)
        if hasattr(sender, "cwnd") or hasattr(sender, "w"):
            return value  # already a window in packets
        return value * rtt_s / packet_bits  # rate-based: bps -> pkts/RTT

    samples = [in_packets_per_rtt()]

    def sample() -> None:
        samples.append(in_packets_per_rtt())

    for k in range(1, observe_rtts + 1):
        sim.at(warmup_s + k * rtt_s, sample)
    sim.run(until=warmup_s + (observe_rtts + 1) * rtt_s)
    return max(b - a for a, b in zip(samples, samples[1:]))


@scenario("aggressiveness")
def aggressiveness(jb: Job) -> float:
    """:mod:`~repro.experiments.ext_aggressiveness`'s table: largest per-RTT
    control increase once congestion ends; the job's params are keyword
    arguments of the measurement."""
    return measure_aggressiveness_pkts_per_rtt(jb.protocol, **dict(jb.params))
