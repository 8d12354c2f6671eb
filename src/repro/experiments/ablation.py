"""Shared harness for the ablations of DESIGN.md §5.

An ablation reruns one figure's scenario with one mechanism switched —
a :class:`~repro.experiments.protocols.Protocol` parameter or a job param
such as the bottleneck ``aqm`` — and tabulates a few payload values per
variant.  A variant is ``(row label cells, protocol, extra job params)``;
one that leaves every switch at the paper's setting is the very job the
figure runs, so it is served from the cache.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import Protocol
from repro.experiments.runner import Table, pick_config

__all__ = ["STABILIZATION", "ablation_jobs", "ablation_reduce"]

#: Value columns of the three CBR-restart ablations: column -> payload value.
STABILIZATION = {"stab_rtts": itemgetter("time_rtts"), "stab_cost": itemgetter("cost")}


def ablation_jobs(
    figure: str,
    scenario_name: str,
    config_cls: type,
    variants: Sequence[tuple[tuple[str, ...], Protocol, dict]],
    scale: str = "fast",
    **overrides,
) -> list[Job]:
    """One ``scenario_name`` job per variant, all on one config."""
    cfg = pick_config(config_cls, scale, **overrides)
    return indexed(
        job(
            figure,
            scenario_name,
            config=cfg,
            protocol=protocol,
            scale=scale,
            params=params,
            tags={"row": cells},
        )
        for cells, protocol, params in variants
    )


def ablation_reduce(
    results,
    title: str,
    label_columns: Sequence[str],
    measures: dict[str, Callable[[Any], Any]],
    notes: str,
) -> Table:
    """One row per variant: its label cells, then each measure of its payload."""
    table = Table(title=title, columns=[*label_columns, *measures], notes=notes)
    for result in results:
        values = (measure(result.value) for measure in measures.values())
        table.add(*result.job.tag("row"), *values)
    return table
