"""Figure 20 validation: this library's TCP against the Appendix A bounds.

Drives the real TCP through Bernoulli loss on an otherwise uncongested
path and reports its delivered rate in packets/RTT.  Appendix A predicts
the measurement falls between "Reno TCP" (lower bound) and "AIMD with
timeouts" (upper bound).
"""

from __future__ import annotations

from repro.cc.equations import aimd_with_timeouts_rate, padhye_rate_per_rtt
from repro.experiments.jobs import DropperSpec, Job, indexed, job
from repro.experiments.protocols import PACKET_BYTES, tcp
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import LossPatternConfig

__all__ = ["DROP_RATES", "jobs", "reduce"]

PACKET_BITS = PACKET_BYTES * 8.0
#: The Bernoulli drop rates p, one job each.
DROP_RATES = [0.05, 0.1, 0.2, 0.3, 0.45]


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """One single-flow ``loss_pattern`` job per drop rate; ``overrides``
    are config fields."""
    duration_s, warmup_s = (200.0, 20.0) if scale == "fast" else (600.0, 60.0)
    sizing = {"bandwidth_bps": 1e8, "duration_s": duration_s, "warmup_s": warmup_s}
    cfg = pick_config(LossPatternConfig, scale, **{**sizing, **overrides})
    return indexed(
        job(
            "ext_fig20_simulated_validation",
            "loss_pattern",
            config=cfg,
            protocol=tcp(),
            params={"dropper": DropperSpec("bernoulli", (p, 1))},
            scale=scale,
        )
        for p in DROP_RATES
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 20 (validation): measured TCP vs the analytic bounds",
        columns=["p", "measured_pkts_per_rtt", "reno_lower", "aimd_timeouts_upper"],
        notes=(
            "Appendix A: the AIMD-with-timeouts line upper-bounds and the "
            "Reno line lower-bounds analytic TCP behavior; the simulated "
            "flow should land in or near the band."
        ),
    )
    for result in results:
        p, _seed = result.job.param("dropper").args
        packets_per_s = result.value["throughput_bps"] / PACKET_BITS
        table.add(
            p,
            packets_per_s * result.job.config.rtt_s,
            padhye_rate_per_rtt(p),
            aimd_with_timeouts_rate(p),
        )
    return table
