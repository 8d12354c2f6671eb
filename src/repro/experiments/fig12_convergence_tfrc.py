"""Figure 12: time to 0.1-fair convergence for two TFRC(k) flows.

Paper: unlike TCP(b), the TFRC(k) convergence time does not increase as
rapidly with increased slowness, because TFRC adjusts to the available rate
after a fixed number of loss intervals rather than by repeated
multiplicative decreases.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import ConvergenceConfig

__all__ = ["KS", "jobs", "reduce"]

#: Scale -> the TFRC history lengths k swept.
KS = {"fast": [1, 6, 32, 128], "paper": [1, 2, 6, 16, 32, 64, 128, 256]}


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    cfg = pick_config(ConvergenceConfig, scale, **overrides)
    return indexed(
        job(
            "fig12",
            "convergence",
            config=replace(cfg, seeds=(seed,)),
            protocol=tfrc(k),
            seed=seed,
            scale=scale,
            tags={"k": k},
        )
        for k in KS[scale]
        for seed in cfg.seeds
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 12: 0.1-fair convergence time for two TFRC(k) flows",
        columns=["k", "convergence_s"],
        notes=(
            "Paper: grows much more slowly with k than TCP(b) does with "
            "1/b (compare Figure 10)."
        ),
    )
    by_k: dict[int, list[float]] = {}
    for result in results:
        by_k.setdefault(result.job.tag("k"), []).append(result.value)
    for k, times in by_k.items():
        table.add(k, sum(times) / len(times))
    return table
