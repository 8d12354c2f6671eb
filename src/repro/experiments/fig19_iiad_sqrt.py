"""Figure 19: IIAD and SQRT under the mildly bursty loss pattern.

Paper: because IIAD reduces its window additively and increases it slowly
when bandwidth becomes available, it achieves smoothness at the cost of
throughput, relative to SQRT.
"""

from __future__ import annotations

from repro.experiments.fig17_mild_bursty import jobs as _mild_jobs
from repro.experiments.fig17_mild_bursty import loss_pattern_table
from repro.experiments.jobs import Job
from repro.experiments.protocols import iiad, sqrt
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]


def jobs(scale: str = "fast", **kwargs) -> list[Job]:
    kwargs.setdefault("protocols", [iiad(), sqrt(2)])
    return _mild_jobs(scale, figure="fig19", **kwargs)


def reduce(results) -> Table:
    return loss_pattern_table(
        results,
        title="Figure 19: IIAD vs SQRT under the mildly bursty loss pattern",
        notes=(
            "Paper: IIAD is smoother than SQRT but pays for it with lower "
            "throughput."
        ),
    )
