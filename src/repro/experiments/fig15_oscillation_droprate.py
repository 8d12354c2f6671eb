"""Figure 15: packet drop rates for the Figure 14 simulations."""

from __future__ import annotations

from repro.experiments.jobs import Job
from repro.experiments.oscillation_utilization import reduce_sweep, sweep_jobs
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

CBR_FRACTION = 2.0 / 3.0
TITLE = "Figure 15: drop rate vs CBR ON/OFF time (3:1 oscillation)"
NOTES = "Companion drop-rate series for the Figure 14 runs."


def jobs(scale: str = "fast", **kwargs) -> list[Job]:
    kwargs.setdefault("cbr_fraction", CBR_FRACTION)
    return sweep_jobs("fig15", scale, **kwargs)


def reduce(results) -> Table:
    return reduce_sweep(results, metric="drop_rate", title=TITLE, notes=NOTES)
