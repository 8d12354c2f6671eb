"""Figure 6: aggregate throughput with a web flash crowd.

Paper: a flash crowd of short TCP transfers (10 packets, 200 flows/s for
5 s) starts at t = 25 s against long-running SlowCC background traffic.
Because the crowd's flows are in slow-start they grab bandwidth rapidly
whether the background is TCP(1/2) or TFRC(256) *with* self-clocking; only
TFRC(256) without self-clocking is slow to yield.
"""

from __future__ import annotations

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import FlashCrowdConfig

__all__ = ["PROTOCOLS", "jobs", "reduce"]

#: The background traffic, one job each.
PROTOCOLS = [tcp(2), tfrc(256), tfrc(256, conservative=True)]


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    cfg = pick_config(FlashCrowdConfig, scale, **overrides)
    return indexed(
        job("fig06", "flash_crowd", config=cfg, protocol=protocol)
        for protocol in PROTOCOLS
    )


def reduce(results) -> Table:
    cfg = results[0].job.config
    table = Table(
        title="Figure 6: aggregate throughput around a flash crowd",
        columns=["background", "time_s", "background_mbps", "crowd_mbps"],
        notes=(
            f"Crowd: {cfg.crowd_rate_per_s:g} flows/s x {cfg.crowd_duration_s:g} s of "
            f"{cfg.transfer_packets}-packet TCP transfers starting at t={cfg.crowd_start:g} s. "
            "Paper: the crowd grabs bandwidth quickly against TCP and against "
            "TFRC(256) with self-clocking; TFRC(256) without it yields slowly."
        ),
    )
    for result in results:
        crowd = {t: v for t, v in result.value["crowd"]}
        for t, bg in result.value["background"]:
            table.add(result.value["protocol"], t, bg / 1e6, crowd.get(t, 0.0) / 1e6)
    return table
