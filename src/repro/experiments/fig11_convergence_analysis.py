"""Figure 11: analytical number of ACKs to 0.1-fair convergence.

Pure closed form: E[#ACKs] = log_{1-bp}(delta) for AIMD(a, b) flows under
packet mark rate p (Section 4.2.2's expected-window analysis).  The paper
plots delta = 0.1, p = 0.1 and notes other p values give almost identically
shaped curves.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.runner import Table

__all__ = ["default_bs", "jobs", "measure_acks_to_fairness", "reduce"]


def default_bs(scale: str = "fast") -> list[float]:
    return [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 1 / 32, 1 / 64, 1 / 128, 1 / 256]


def jobs(
    scale: str = "fast",
    bs: Sequence[float] | None = None,
    p: float = 0.1,
    delta: float = 0.1,
) -> list[Job]:
    return indexed(
        job(
            "fig11",
            "analysis_acks",
            params={"b": float(b), "p": float(p), "delta": float(delta)},
            scale=scale,
        )
        for b in (bs if bs is not None else default_bs(scale))
    )


def reduce(results) -> Table:
    first = results[0].job
    p = first.param("p")
    delta = first.param("delta")
    table = Table(
        title="Figure 11: expected ACKs to 0.1-fairness (analysis)",
        columns=["b", "expected_acks"],
        notes=(
            f"log_(1-b*p)(delta) with p={p:g}, delta={delta:g}.  Paper: fast "
            "for b > ~0.2, exponentially longer for smaller b."
        ),
    )
    for result in results:
        table.add(result.job.param("b"), result.value)
    return table


def measure_acks_to_fairness(
    b: float,
    bandwidth_bps: float = 2e6,
    rtt_s: float = 0.05,
    second_start: float = 15.0,
    end: float = 300.0,
    delta: float = 0.1,
    seed: int = 1,
) -> tuple[float, float]:
    """Simulate the analysis's setting: two ECN-marked TCP(b) flows.

    The Section 4.2.2 model assumes ECN-style marking (no retransmissions)
    at a steady mark rate p.  We run two TCP(b) flows with ECN over a
    marking RED bottleneck, measure the δ-fair convergence time, and
    convert it to an ACK count (every delivered packet is ACKed).  Returns
    ``(acks, observed_mark_rate)`` for comparison with
    :func:`repro.analysis.convergence.acks_to_fairness`.
    """
    from repro.cc.base import establish
    from repro.cc.binomial import tcp_rule
    from repro.cc.tcp import new_tcp_flow
    from repro.metrics.fairness import delta_fair_convergence_time
    from repro.net.dumbbell import Dumbbell
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    net = Dumbbell(
        sim,
        bandwidth_bps=bandwidth_bps,
        rtt_s=rtt_s,
        rng=RngRegistry(seed),
        ecn_marking=True,
    )
    sender_a, sink_a = new_tcp_flow(sim, rule=tcp_rule(b), ecn=True)
    flow_a = establish(net, sender_a, sink_a)
    sender_b, sink_b = new_tcp_flow(sim, rule=tcp_rule(b), ecn=True)
    flow_b = establish(net, sender_b, sink_b)
    # Start in congestion avoidance, as the analysis assumes.
    sender_a.ssthresh = sender_b.ssthresh = 1.0
    sender_a.start_at(0.0)
    sender_b.start_at(second_start)
    sim.run(until=end)

    converge_s = delta_fair_convergence_time(
        net.accountant, flow_a, flow_b,
        start=second_start, end=end, delta=delta,
        window_s=0.25, sustain_windows=2,
    )
    if converge_s is None:
        converge_s = end - second_start
    horizon = second_start + converge_s
    acked_packets = sum(
        net.accountant.delivered_bytes(f, second_start, horizon) / 1000.0
        for f in (flow_a, flow_b)
    )
    import math

    mark_rate = net.monitor.mark_rate(second_start, horizon)
    if math.isnan(mark_rate):
        mark_rate = 0.0
    return acked_packets, mark_rate
