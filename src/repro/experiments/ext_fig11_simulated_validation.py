"""Figure 11 validation: simulated vs analytic ACKs to 0.1-fairness.

Cross-checks the closed form of Figure 11 against simulation in the
analysis's own setting: two ECN-marked TCP(b) flows over a marking RED
bottleneck, convergence measured in ACKs and compared with
log_(1-b*p)(delta) at the mark rate the run observed.
"""

from __future__ import annotations

import math

from repro.analysis.convergence import acks_to_fairness
from repro.experiments.jobs import Job, indexed, job, scenario
from repro.experiments.protocols import Protocol, tcp_b
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import ConvergenceConfig, converge

__all__ = ["jobs", "measure_acks_to_fairness", "reduce", "simulated_acks_to_fairness"]


def measure_acks_to_fairness(protocol: Protocol, cfg: ConvergenceConfig) -> tuple[float, float]:
    """Simulate the analysis's setting: two ECN-marked TCP(b) flows.

    The Section 4.2.2 model assumes ECN-style marking (no retransmissions)
    at a steady mark rate p.  One run of the convergence scenario with two
    flows of ``protocol`` (a TCP(b) with ``ecn=True``) over a marking RED
    bottleneck; the δ-fair convergence time becomes an ACK count (every
    delivered packet is ACKed).  Returns ``(acks, observed_mark_rate)`` for
    :func:`repro.analysis.convergence.acks_to_fairness`.
    """
    converge_s, net, flows = converge(protocol, cfg, cfg.seeds[0], aqm="red+ecn")
    horizon = cfg.second_start + converge_s
    acked_packets = sum(
        net.accountant.delivered_bytes(f, cfg.second_start, horizon) / 1000.0 for f in flows
    )
    mark_rate = net.monitor.mark_rate(cfg.second_start, horizon)
    return acked_packets, 0.0 if math.isnan(mark_rate) else mark_rate


@scenario("acks_to_fairness")
def simulated_acks_to_fairness(jb: Job) -> list[float]:
    """This module's table: simulated ``[ACKs to δ-fairness, mark rate]``."""
    return list(measure_acks_to_fairness(jb.protocol, jb.config))


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """The convergence scenario, one seed, no reverse traffic, for two b."""
    cfg = pick_config(ConvergenceConfig, scale, **{"seeds": (1,), "reverse_flows": 0, **overrides})
    return indexed(
        job(
            "ext_fig11_simulated_validation",
            "acks_to_fairness",
            config=cfg,
            protocol=tcp_b(b, ecn=True),
            scale=scale,
        )
        for b in (0.5, 0.125)
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 11 (validation): simulated vs analytic ACKs to 0.1-fairness",
        columns=["b", "measured_acks", "mark_rate", "model_acks"],
        notes="Model: log_(1-b*p)(0.1) at the observed mark rate.",
    )
    for result in results:
        b, delta = dict(result.job.protocol.params)["b"], result.job.config.delta
        acks, p = result.value
        table.add(b, acks, p, acks_to_fairness(b, p, delta) if 0 < p < 1 else math.nan)
    return table
