"""Figure 5: stabilization cost vs gamma.

Same sweep as Figure 4, reported with the stabilization-cost metric
(stabilization time in RTTs x average loss percentage during the
stabilization interval; cost 1 = one RTT's worth of packets dropped).

The job list is the Figure 4 job list (only the ``figure`` label differs,
which is excluded from the content hash), so with a result cache the sweep
is simulated once and both figures reduce from the same cached payloads.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments import fig04_stabilization_time as fig04
from repro.experiments.jobs import Job
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]


def jobs(scale: str = "fast", **kwargs) -> list[Job]:
    """The Figure 4 sweep, relabelled."""
    return [replace(j, figure="fig05") for j in fig04.jobs(scale, **kwargs)]


def reduce(results) -> Table:
    return fig04.reduce(results, metric="cost")
