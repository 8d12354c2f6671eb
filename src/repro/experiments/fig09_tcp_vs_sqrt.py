"""Figure 9: throughput of TCP and SQRT(1/2) flows under 3:1 oscillation.

Paper: same qualitative picture as Figures 7 and 8 — the slowly-responsive
(binomial) algorithm remains safe for TCP but receives less than its
equitable share when conditions change dynamically.
"""

from __future__ import annotations

from repro.experiments.fairness_vs_tcp import fairness_jobs, fairness_reduce
from repro.experiments.jobs import Job
from repro.experiments.protocols import sqrt
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

COMPETITOR = sqrt(2)
PAPER_CLAIM = (
    "Paper: TCP modestly out-competes SQRT under oscillating "
    "bandwidth, without SQRT harming TCP."
)


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    return fairness_jobs("fig09", COMPETITOR, scale, **overrides)


def reduce(results) -> Table:
    return fairness_reduce(results, "Figure 9", COMPETITOR.name, PAPER_CLAIM)
