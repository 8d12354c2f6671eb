"""Figure 13: f(20) and f(200) after the available bandwidth doubles.

Paper: ten identical flows share 10 Mbps; at t = 500 s five stop.  TCP
reaches ~86% utilization within 20 RTTs; TCP(1/8) ~75%, TFRC(8) ~65%; the
extreme TCP(1/256) and TFRC(256) reach only ~60% after 20 RTTs and
65-70% after 200.  TFRC runs with history discounting turned off, isolating
the loss-rate response.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import Protocol, sqrt, tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import DoublingConfig

__all__ = ["FAMILIES", "GAMMAS", "jobs", "reduce"]

FAMILIES: dict[str, Callable[[int], Protocol]] = {
    "TCP(1/b)": lambda g: tcp(g),
    "SQRT(1/b)": lambda g: sqrt(g),
    "TFRC(b)": lambda g: tfrc(g, history_discounting=False),
}


#: Scale -> the slowness parameters each family is swept over.
GAMMAS = {"fast": [2, 8, 64, 256], "paper": [2, 4, 8, 16, 32, 64, 128, 256]}


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    cfg = pick_config(DoublingConfig, scale, **overrides)
    return indexed(
        job(
            "fig13",
            "doubling",
            config=cfg,
            protocol=factory(gamma),
            scale=scale,
            tags={"family": family, "b_param": gamma},
        )
        for family, factory in FAMILIES.items()
        for gamma in GAMMAS[scale]
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 13: link utilization f(20), f(200) after bandwidth doubles",
        columns=["family", "b_param", "f20", "f200"],
        notes=(
            "Paper reference points: TCP(1/2) f(20)~0.86, TCP(1/8)~0.75, "
            "TFRC(8)~0.65; b=256 variants ~0.60 at f(20) and only 0.65-0.70 "
            "at f(200)."
        ),
    )
    for result in results:
        f_of_k = {k: v for k, v in result.value["f_of_k"]}
        table.add(
            result.job.tag("family"),
            result.job.tag("b_param"),
            f_of_k[20],
            f_of_k[200],
        )
    return table
