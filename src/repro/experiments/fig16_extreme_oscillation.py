"""Figure 16: utilization under extreme 10:1 bandwidth oscillations.

Paper: with 10:1 changes in available bandwidth none of the mechanisms is
particularly successful, and for certain oscillation frequencies TFRC does
particularly badly relative to TCP.
"""

from __future__ import annotations

from repro.experiments.jobs import Job
from repro.experiments.oscillation_utilization import reduce_sweep, sweep_jobs
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

CBR_FRACTION = 0.9
TITLE = "Figure 16: utilization vs CBR ON/OFF time (10:1 oscillation)"
NOTES = (
    "Paper: all protocols suffer; TFRC is worst at some oscillation "
    "frequencies."
)


def jobs(scale: str = "fast", **kwargs) -> list[Job]:
    kwargs.setdefault("cbr_fraction", CBR_FRACTION)
    return sweep_jobs("fig16", scale, **kwargs)


def reduce(results) -> Table:
    return reduce_sweep(results, metric="utilization", title=TITLE, notes=NOTES)
