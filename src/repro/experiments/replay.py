"""Recompute job payloads from saved telemetry traces — no simulation.

A job executed with ``trace=True`` leaves a JSONL trace artifact beside
its cached result (see :mod:`repro.experiments.cache`).  This module
closes the loop: given the job and a
:class:`~repro.telemetry.trace.TraceReader` over that artifact, a
*replayer* rebuilds the job's JSON payload from the recorded channels
alone.  The replayer calls the **same** measurement function as the live
scenario (``measure_cbr_restart``, ``measure_oscillation`` — each returns
the payload itself) over the **same** probe data, so the replayed payload
is bit-identical to the cached one — which is exactly what the
trace-replay CI smoke asserts.

Replayers are registered per scenario name; scenarios whose payloads are
not pure functions of the recorded channels (e.g. the closed-form
analysis scenarios, which never simulate) simply have no replayer.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.experiments.jobs import Job
from repro.experiments.scenarios import measure_cbr_restart, measure_oscillation
from repro.telemetry.trace import TraceReader

__all__ = ["REPLAYERS", "replay_job", "replayer"]

REPLAYERS: dict[str, Callable[[Job, TraceReader], Any]] = {}


def replayer(scenario: str) -> Callable:
    """Register a trace replayer for ``scenario`` (decorator)."""

    def register(fn: Callable[[Job, TraceReader], Any]) -> Callable:
        REPLAYERS[scenario] = fn
        return fn

    return register


def replay_job(jb: Job, reader: TraceReader) -> Any:
    """Rebuild ``jb``'s payload from its trace; raises for unsupported scenarios."""
    try:
        fn = REPLAYERS[jb.scenario]
    except KeyError:
        raise KeyError(
            f"scenario {jb.scenario!r} has no trace replayer; "
            f"replayable scenarios: {', '.join(sorted(REPLAYERS))}"
        ) from None
    return fn(jb, reader)


@replayer("cbr_restart")
def _replay_cbr_restart(jb: Job, reader: TraceReader) -> dict:
    """Figures 3-5 from the bottleneck's recorded arrival/drop channels."""
    return measure_cbr_restart(jb, reader.link("bottleneck"))


@replayer("oscillation")
def _replay_oscillation(jb: Job, reader: TraceReader) -> dict:
    """Figures 7-9/14-16 from per-flow byte channels plus group metadata."""
    ids_a = [int(i) for i in reader.meta["oscillation.flows_a"]]
    ids_b = [int(i) for i in reader.meta["oscillation.flows_b"]]
    return measure_oscillation(jb, reader.link("bottleneck"), reader.flows(), ids_a, ids_b)
