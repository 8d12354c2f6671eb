"""Figure 8: throughput of TCP and TCP(1/8) flows under 3:1 oscillation.

Paper: like TFRC, TCP(1/8) is reasonably prompt in reducing its rate under
extreme congestion but observably slower at increasing it when bandwidth
appears, so TCP out-competes it in the oscillating environment.
"""

from __future__ import annotations

from repro.experiments.fairness_vs_tcp import fairness_jobs, fairness_reduce
from repro.experiments.jobs import Job
from repro.experiments.protocols import tcp
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

COMPETITOR = tcp(8)
PAPER_CLAIM = (
    "Paper: TCP receives more than TCP(1/8) under oscillating "
    "bandwidth; the slower algorithm is not mistreating TCP, it is "
    "losing throughput itself."
)


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    return fairness_jobs("fig08", COMPETITOR, scale, **overrides)


def reduce(results) -> Table:
    return fairness_reduce(results, "Figure 8", COMPETITOR.name, PAPER_CLAIM)
