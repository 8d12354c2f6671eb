"""Figure 20: throughput equations with and without timeouts (Appendix A).

Pure closed form: the sending rate in packets/RTT as a function of the
packet drop rate p for the pure-AIMD model, the AIMD-with-timeouts model,
and the Padhye Reno model.  The AIMD-with-timeouts line upper-bounds Reno
at high loss; pure AIMD applies only below p ~ 1/3.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.runner import Table

__all__ = [
    "default_drop_rates",
    "jobs",
    "reduce",
    "run_simulated",
    "measure_tcp_rate_per_rtt",
]


def default_drop_rates(scale: str = "fast") -> list[float]:
    return [0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.33, 0.5, 0.6, 0.7, 0.8, 0.9]


def jobs(scale: str = "fast", p_values: Sequence[float] | None = None) -> list[Job]:
    return indexed(
        job("fig20", "timeout_models", params={"p": float(p)}, scale=scale)
        for p in (
            list(p_values) if p_values is not None else default_drop_rates(scale)
        )
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 20: sending rate (packets/RTT) vs drop rate, three models",
        columns=["p", "pure_aimd", "aimd_with_timeouts", "reno_tcp"],
        notes=(
            "Appendix A: pure AIMD = sqrt(1.5/p) (valid below p~1/3); AIMD "
            "with timeouts = (1/(1-p)) / (2^(1/(1-p)) - 1); Reno = Padhye "
            "model.  The timeout models extend below one packet per RTT."
        ),
    )
    for result in results:
        pure_aimd, aimd_with_timeouts, reno = result.value
        table.add(result.job.param("p"), pure_aimd, aimd_with_timeouts, reno)
    return table


def measure_tcp_rate_per_rtt(
    p: float,
    rtt_s: float = 0.05,
    duration_s: float = 300.0,
    seed: int = 1,
    limited_transmit: bool = False,
) -> float:
    """Delivered rate of a real TCP flow, in packets/RTT, under Bernoulli
    loss of probability ``p`` on an otherwise uncongested path.

    Validates Appendix A against this library's actual TCP: the appendix
    predicts the measurement falls between "Reno TCP" (lower bound) and
    "AIMD with timeouts" (upper bound), with Limited Transmit and similar
    refinements sitting higher inside the band.
    """
    import random

    from repro.cc.tcp import new_tcp_flow
    from repro.net.droppers import BernoulliDropper
    from repro.net.monitor import FlowAccountant
    from repro.net.paths import single_path
    from repro.sim.engine import Simulator

    sim = Simulator()
    accountant = FlowAccountant(sim)
    sender, sink = new_tcp_flow(
        sim, min_rto=4 * rtt_s, limited_transmit=limited_transmit
    )
    sink.on_data.append(accountant.on_deliver)
    dropper = BernoulliDropper(p, rng=random.Random(seed))
    single_path(sim, sender, sink, rtt_s=rtt_s, bandwidth_bps=1e8, dropper=dropper)
    sender.start()
    sim.run(until=duration_s)
    warmup = duration_s * 0.1
    pps = accountant.throughput_bps(0, warmup, duration_s) / (sender.packet_size * 8.0)
    return pps * rtt_s


def run_simulated(
    scale: str = "fast",
    p_values: Sequence[float] | None = None,
    rtt_s: float = 0.05,
) -> Table:
    """Measured TCP rate vs the Appendix A analytic bounds."""
    from repro.cc.equations import aimd_with_timeouts_rate, padhye_rate_per_rtt

    if p_values is None:
        p_values = [0.05, 0.1, 0.2, 0.3, 0.45]
    duration = 200.0 if scale == "fast" else 600.0
    table = Table(
        title="Figure 20 (validation): measured TCP vs the analytic bounds",
        columns=["p", "measured_pkts_per_rtt", "reno_lower", "aimd_timeouts_upper"],
        notes=(
            "Appendix A: the AIMD-with-timeouts line upper-bounds and the "
            "Reno line lower-bounds analytic TCP behavior; the simulated "
            "flow should land in or near the band."
        ),
    )
    for p in p_values:
        measured = measure_tcp_rate_per_rtt(p, rtt_s=rtt_s, duration_s=duration)
        table.add(
            p,
            measured,
            padhye_rate_per_rtt(p),
            aimd_with_timeouts_rate(p),
        )
    return table
