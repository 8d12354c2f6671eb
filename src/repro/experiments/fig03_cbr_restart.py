"""Figure 3: drop-rate time series when a CBR source restarts.

Paper: after the CBR source restarts at t = 180 s (following a 30 s idle
period), the network sees a transient drop-rate spike of roughly 40% for at
least one RTT; self-clocked algorithms return to the steady drop rate
within tens of RTTs, while very slow rate-based algorithms (TFRC(256)
without self-clocking) hold the network in overload for hundreds of RTTs.
"""

from __future__ import annotations

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import CbrRestartConfig

__all__ = ["PROTOCOLS", "jobs", "reduce"]

PROTOCOLS = [tcp(2), tcp(256), tfrc(256), tfrc(256, conservative=True)]


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """One CBR-restart job per protocol; ``overrides`` are config fields."""
    cfg = pick_config(CbrRestartConfig, scale, **overrides)
    return indexed(
        job("fig03", "cbr_restart", config=cfg, protocol=protocol, scale=scale)
        for protocol in PROTOCOLS
    )


def reduce(results) -> Table:
    """Drop-rate series around the restart, one row per (protocol, time)."""
    cfg = results[0].job.config
    table = Table(
        title="Figure 3: drop rate after a CBR restart",
        columns=["protocol", "time_s", "loss_rate"],
        notes=(
            f"CBR on (0, {cfg.cbr_stop}) s, idle, on again at {cfg.cbr_restart} s. "
            "Paper: ~40% spike for >= 1 RTT, then recovery whose duration "
            "depends on the algorithm's response time; rate-based slow "
            "algorithms stay in overload for hundreds of RTTs."
        ),
    )
    for result in results:
        for t, rate in result.value["series"]:
            if t >= cfg.cbr_restart - 2.0:
                table.add(result.value["protocol"], t, rate)
    return table
