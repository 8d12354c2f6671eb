"""Figure 19: IIAD and SQRT under the mildly bursty loss pattern.

Paper: because IIAD reduces its window additively and increases it slowly
when bandwidth becomes available, it achieves smoothness at the cost of
throughput, relative to SQRT.
"""

from __future__ import annotations

from repro.experiments.fig17_mild_bursty import (
    MILD_BURSTY,
    loss_pattern_jobs,
    loss_pattern_table,
)
from repro.experiments.jobs import Job
from repro.experiments.protocols import iiad, sqrt
from repro.experiments.runner import Table

__all__ = ["PROTOCOLS", "jobs", "reduce"]

PROTOCOLS = [iiad(), sqrt(2)]


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """Figure 17's loss pattern, run on IIAD and SQRT."""
    return loss_pattern_jobs("fig19", PROTOCOLS, MILD_BURSTY, scale, **overrides)


def reduce(results) -> Table:
    return loss_pattern_table(
        results,
        title="Figure 19: IIAD vs SQRT under the mildly bursty loss pattern",
        notes=(
            "Paper: IIAD is smoother than SQRT but pays for it with lower "
            "throughput."
        ),
    )
