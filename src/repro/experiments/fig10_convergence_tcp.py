"""Figure 10: time to 0.1-fair convergence for two TCP(b) flows.

Paper: two TCP(b) flows on a 10 Mbps link, one starting from the full link
and one from ~1 packet/RTT.  Convergence to 0.1-fairness is quick for
b >= ~0.2 and grows rapidly as b shrinks (consistent with the analytical
log_{1-bp} delta ACK count of Figure 11).

Each (b, seed) pair is its own job — seeds run in parallel too — and
``reduce`` averages the per-seed convergence times in seed order, exactly
as the serial implementation did.
"""

from __future__ import annotations

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tcp_b
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import CONVERGENCE_SEEDS, ConvergenceConfig

__all__ = ["BS", "jobs", "reduce"]

#: Scale -> the decrease factors b swept.
BS = {
    "fast": [0.5, 0.25, 0.125, 1 / 32, 1 / 128],
    "paper": [0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256],
}


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    return indexed(
        job(
            "fig10",
            "convergence",
            config=pick_config(ConvergenceConfig, scale, seed=seed, **overrides),
            protocol=tcp_b(b),
            tags={"b": b},
        )
        for b in BS[scale]
        for seed in CONVERGENCE_SEEDS[scale]
    )


def reduce(results) -> Table:
    cfg = results[0].job.config
    table = Table(
        title="Figure 10: 0.1-fair convergence time for two TCP(b) flows",
        columns=["b", "convergence_s"],
        notes=(
            "Paper: acceptable convergence for b >= ~0.2, exponentially "
            "longer below.  Runs that never converge are charged the full "
            f"observation window ({cfg.end - cfg.second_start:g} s)."
        ),
    )
    by_b: dict[float, list[float]] = {}
    for result in results:
        by_b.setdefault(result.job.tag("b"), []).append(result.value)
    for b, times in by_b.items():
        table.add(b, sum(times) / len(times))
    return table
