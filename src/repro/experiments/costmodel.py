"""In-memory job cost model feeding the executor's inline fast path.

The parallel executor needs one number per job — predicted wall seconds
— *before* the job has run, to decide whether a pool round-trip (~ms)
is worth paying.  This module supplies it from three tiers,
most-informed first:

1. **Learned estimates**: an exponentially-weighted moving average of
   the wall times this model has been shown, keyed by ``scenario:scale``
   (the two job fields that dominate cost; parameters within one sweep
   vary far less than scenarios vary between figures).
2. **Static seeds**: per-scenario constants calibrated once from
   measured per-job wall times, used until the first observation
   lands.  Absolute accuracy is irrelevant; only the
   µs-vs-seconds magnitude matters, and the seeds already separate
   closed-form from simulated scenarios by 30x, which is why estimates
   are not persisted across runs.
3. **A default**: one second, scaled, for unknown scenarios.

The model never reads a clock itself — wall times are handed in by the
executor.  Predictions only choose *where* a job runs; results are
reduced in canonical job order, so a wildly wrong estimate can cost
wall-clock but can never change a table.
"""

from __future__ import annotations

from repro.experiments.jobs import Job

__all__ = ["CostModel", "DEFAULT_SEED_S", "STATIC_SEED_S"]

#: Cold-start wall-second seeds per scenario at the "fast" scale,
#: calibrated once from measured per-job wall times.  The two
#: closed-form analysis scenarios are microseconds by construction —
#: that magnitude (not the exact value) is what routes them onto the
#: executor's inline fast path instead of a process pool.
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

#: Multiplier applied to fast-scale seeds for other scales ("paper"
#: sweeps simulate ~an order of magnitude more virtual seconds).
_SCALE_FACTOR = {"fast": 1.0, "paper": 30.0}

#: EWMA weight of the newest observation.
_ALPHA = 0.3


class CostModel:
    """Predicted wall seconds per job, learned from executor history."""

    def __init__(self) -> None:
        #: key -> [ewma_seconds, observation_count]
        self._estimates: dict[str, list] = {}

    @staticmethod
    def key(jb: Job) -> str:
        """Model key: scenario + scale, the cost-dominating job fields."""
        return f"{jb.scenario}:{jb.scale}"

    def predict(self, jb: Job) -> float:
        """Predicted wall seconds for ``jb`` (learned, else static seed)."""
        estimate = self._estimates.get(self.key(jb))
        if estimate is not None:
            return float(estimate[0])
        seed = STATIC_SEED_S.get(jb.scenario, DEFAULT_SEED_S)
        return seed * _SCALE_FACTOR.get(jb.scale, 1.0)

    def observe(self, jb: Job, wall_s: float) -> None:
        """Fold one measured wall time into the EWMA for ``jb``'s key."""
        if not wall_s >= 0.0:  # rejects negatives and NaN in one test
            return
        key = self.key(jb)
        estimate = self._estimates.get(key)
        if estimate is None:
            self._estimates[key] = [float(wall_s), 1]
        else:
            estimate[0] += _ALPHA * (float(wall_s) - estimate[0])
            estimate[1] += 1

    def observations(self, jb: Job) -> int:
        """How many observations back the estimate for ``jb``'s key."""
        estimate = self._estimates.get(self.key(jb))
        return int(estimate[1]) if estimate is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CostModel [{len(self._estimates)} estimates]>"
