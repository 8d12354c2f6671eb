"""Figure 4: stabilization time vs the slowness parameter gamma.

Paper: for TCP(1/gamma) and SQRT(1/gamma) the stabilization time stays low
across the whole gamma range (self-clocking limits the sending rate to the
previous RTT's bottleneck ACK rate); for the rate-based RAP(1/gamma) and
TFRC(gamma) it grows to hundreds of RTTs at large gamma; TFRC with the
conservative_ self-clocking option is repaired.

Figure 5 reports the same sweep with the stabilization *cost* metric, so
both figures define the same job list and share cached results; the sweep
is never run twice.
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import Protocol, rap, sqrt, tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import CbrRestartConfig

__all__ = ["FAMILIES", "GAMMAS", "jobs", "reduce"]

# Family name -> factory(gamma) -> Protocol.
FAMILIES: dict[str, Callable[[int], Protocol]] = {
    "TCP(1/g)": lambda g: tcp(g),
    "SQRT(1/g)": lambda g: sqrt(g),
    "RAP(1/g)": lambda g: rap(g),
    "TFRC(g)": lambda g: tfrc(g),
    "TFRC(g)+SC": lambda g: tfrc(g, conservative=True),
}


#: Scale -> the gammas each family is swept over.
GAMMAS = {"fast": [2, 16, 64, 256], "paper": [2, 4, 8, 16, 32, 64, 128, 256]}


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """The CBR-restart sweep across families x gammas, as jobs."""
    cfg = pick_config(CbrRestartConfig, scale, **overrides)
    return indexed(
        job(
            "fig04",
            "cbr_restart",
            config=cfg,
            protocol=factory(gamma),
            scale=scale,
            tags={"family": family, "gamma": gamma},
        )
        for family, factory in FAMILIES.items()
        for gamma in GAMMAS[scale]
    )


def _metric_table(metric: str) -> tuple[str, str, str]:
    if metric == "time":
        return (
            "time_rtts",
            "Figure 4: stabilization time (RTTs) vs gamma",
            "Paper: self-clocked TCP/SQRT stay low for all gamma; RAP and "
            "TFRC without self-clocking reach hundreds of RTTs at gamma=256; "
            "TFRC+SC behaves like TCP.",
        )
    if metric == "cost":
        return (
            "cost",
            "Figure 5: stabilization cost vs gamma (log scale in paper)",
            "Paper: at large gamma the rate-based algorithms are up to two "
            "orders of magnitude worse than the most slowly-responsive "
            "TCP(1/gamma) or SQRT(1/gamma).",
        )
    raise ValueError(f"unknown metric {metric!r}")


def reduce(results, metric: str = "time") -> Table:
    """Fold sweep payloads into the Figure 4 (time) or 5 (cost) table."""
    field, title, note = _metric_table(metric)
    table = Table(title=title, columns=["family", "gamma", "value"], notes=note)
    keyed = {
        (r.job.tag("family"), r.job.tag("gamma")): r.value[field] for r in results
    }
    for (family, gamma), value in sorted(keyed.items()):
        table.add(family, gamma, value)
    return table
