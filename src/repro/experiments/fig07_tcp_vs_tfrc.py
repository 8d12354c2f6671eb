"""Figure 7: throughput of TCP and TFRC flows under 3:1 oscillation.

Paper: when the square-wave period is between about one and ten seconds,
the TCP flows receive more throughput than the TFRC flows; overall link
utilization dips when the period is around 0.2 s (4 RTTs).  Despite much
trying, the paper found no varying-bandwidth scenario where TFRC beats TCP
in the long term.
"""

from __future__ import annotations

from repro.experiments.fairness_vs_tcp import fairness_jobs, fairness_reduce
from repro.experiments.jobs import Job
from repro.experiments.protocols import tfrc
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

COMPETITOR = tfrc(6)
PAPER_CLAIM = (
    "Paper: TCP > TFRC for periods ~1-10 s; utilization dips near a "
    "period of 4 RTTs; TFRC never beats TCP in the long term."
)


def jobs(scale: str = "fast", **kwargs) -> list[Job]:
    return fairness_jobs("fig07", COMPETITOR, scale, **kwargs)


def reduce(results) -> Table:
    return fairness_reduce(results, "Figure 7", COMPETITOR.name, PAPER_CLAIM)
