"""Figure 14: effect of 3:1 bandwidth oscillation on link utilization.

Paper: short CBR bursts (ON/OFF of 50 ms) are absorbed by the RED queue and
throughput stays high for TCP(1/8), TCP and TFRC(6) alike; ON/OFF times
near 200 ms (4 RTTs) cost every protocol, dropping the flows below ~80% of
the available bandwidth.
"""

from __future__ import annotations

from repro.experiments.jobs import Job
from repro.experiments.oscillation_utilization import reduce_sweep, sweep_jobs
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]

CBR_FRACTION = 2.0 / 3.0
TITLE = "Figure 14: utilization vs CBR ON/OFF time (3:1 oscillation)"
NOTES = (
    "Paper: high utilization at 50 ms ON/OFF; a dip below ~0.8 around "
    "ON/OFF = 4 RTTs for all three protocols."
)


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    return sweep_jobs("fig14", scale, CBR_FRACTION, **overrides)


def reduce(results) -> Table:
    return reduce_sweep(results, metric="utilization", title=TITLE, notes=NOTES)
