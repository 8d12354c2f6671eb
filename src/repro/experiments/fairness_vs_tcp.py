"""Shared harness for Figures 7-9: long-term fairness vs TCP.

Five TCP flows compete with five flows of another TCP-compatible protocol
while a square-wave CBR source oscillates the available bandwidth 3:1.
Each column of the paper's figures is one simulation at one square-wave
period; the series are the per-flow throughputs normalized by the fair
share, plus the per-type means.

``fairness_jobs`` / ``fairness_reduce`` are the declarative halves the
figure modules delegate to.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import Protocol, tcp
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import OscillationConfig

__all__ = ["PERIODS", "fairness_jobs", "fairness_reduce"]

#: Scale -> the square-wave periods (seconds), one job each.
PERIODS = {
    "fast": [0.2, 0.4, 1.0, 4.0, 16.0],
    "paper": [0.2, 0.4, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
}


def fairness_jobs(
    figure: str,
    competitor: Protocol,
    scale: str = "fast",
    periods: Sequence[float] | None = None,
    **overrides,
) -> list[Job]:
    """One mixed TCP-vs-competitor oscillation job per square-wave period:
    ``periods``, else the scale's :data:`PERIODS`."""
    cfg = pick_config(OscillationConfig, scale, **overrides)
    periods = list(periods) if periods is not None else PERIODS[scale]
    reference = tcp(2)
    return indexed(
        job(
            figure,
            "oscillation",
            config=cfg,
            protocol=reference,
            params={"period_s": float(period), "protocol_b": competitor},
        )
        for period in periods
    )


def fairness_reduce(
    results, figure: str, competitor_name: str, paper_claim: str
) -> Table:
    table = Table(
        title=f"{figure}: TCP vs {competitor_name} under 3:1 oscillating bandwidth",
        columns=[
            "period_s",
            "tcp_mean_share",
            "other_mean_share",
            "utilization",
            "drop_rate",
        ],
        notes=paper_claim,
    )
    for result in results:
        value = result.value
        table.add(
            value["period_s"],
            value["mean_a"],
            value["mean_b"],
            value["utilization"],
            value["drop_rate"],
        )
    return table
