"""Recompute job payloads from saved telemetry traces — no simulation.

A job executed with ``trace=True`` leaves a JSONL trace artifact beside
its cached result (see :mod:`repro.experiments.cache`).  This module
closes the loop: given the job and a
:class:`~repro.telemetry.trace.TraceReader` over that artifact, a
*replayer* rebuilds the job's JSON payload from the recorded channels
alone.  Because the replayer calls the **same** measurement functions as
the live path (``measure_cbr_restart``, ``measure_oscillation``) over
the **same** probe data, the replayed payload is bit-identical to the
cached one — which is exactly what the trace-replay CI smoke asserts.

Replayers are registered per scenario name; scenarios whose payloads are
not pure functions of the recorded channels (e.g. the closed-form
analysis scenarios, which never simulate) simply have no replayer.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.experiments.jobs import Job, cbr_restart_payload, oscillation_payload
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
    from repro.experiments.scenarios import measure_cbr_restart

    monitor = reader.link("bottleneck")
    result = measure_cbr_restart(monitor, jb.config, jb.protocol.name)
    return cbr_restart_payload(result)


@replayer("oscillation")
def _replay_oscillation(jb: Job, reader: TraceReader) -> dict:
    """Figures 7-9/14-16 from per-flow byte channels plus group metadata."""
    from repro.experiments.scenarios import measure_oscillation

    ids_a = [int(i) for i in reader.meta["oscillation.flows_a"]]
    ids_b = [int(i) for i in reader.meta["oscillation.flows_b"]]
    period_s = jb.param("period_s")
    protocol_b = jb.param("protocol_b")
    result = measure_oscillation(
        reader.link("bottleneck"),
        reader.flows(),
        ids_a,
        ids_b,
        jb.protocol.name,
        protocol_b.name if protocol_b is not None else None,
        period_s,
        jb.config.duration(period_s),
        jb.config,
    )
    return oscillation_payload(result)
