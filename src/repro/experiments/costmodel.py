"""Static job cost model feeding the executor's inline fast path.

The parallel executor needs one number per job — predicted wall seconds
— *before* the job has run, to decide whether a pool round-trip (~ms)
is worth paying.  This module supplies it from per-scenario constants
(the static seeds), with a one-second default for unknown scenarios.
Absolute accuracy is irrelevant; only the µs-vs-seconds magnitude
matters, and the seeds separate closed-form from simulated scenarios by
more than 30x.  A job does not know its scale, and need not: a paper
sweep's points cost more, but no closed-form job comes near the
executor's inline threshold and no simulated one falls under it.
Nothing is learned from wall times: a map is split before any of its
jobs completes.

Predictions only choose *where* a job runs; results are reduced in
canonical job order, so a wildly wrong estimate can cost wall-clock but
can never change a table.
"""

from __future__ import annotations

from repro.experiments.jobs import Job

__all__ = ["CostModel", "DEFAULT_SEED_S", "STATIC_SEED_S"]

#: Wall-second seeds per scenario at the "fast" scale, calibrated once
#: from measured per-job wall times.  The two closed-form analysis
#: scenarios are microseconds by construction — that magnitude (not the
#: exact value) is what routes them onto the executor's inline fast path
#: instead of a process pool.
STATIC_SEED_S = {
    "analysis_acks": 2e-6,
    "cbr_restart": 3.8,
    "convergence": 1.0,
    "doubling": 1.0,
    "flash_crowd": 0.9,
    "loss_pattern": 0.3,
    "oscillation": 1.5,
    "queue_dynamics": 1.0,
    "responsiveness": 0.5,
    "timeout_models": 4e-6,
}

#: Seed for scenarios absent from :data:`STATIC_SEED_S`.
DEFAULT_SEED_S = 1.0


class CostModel:
    """Predicted wall seconds per job: its scenario's seed."""

    def predict(self, jb: Job) -> float:
        """Predicted wall seconds for ``jb``."""
        return STATIC_SEED_S.get(jb.scenario, DEFAULT_SEED_S)
