"""Shared harness for Figures 14-16: utilization under oscillation.

Ten identical flows (all using the same congestion control) compete with an
ON/OFF CBR source.  The x-axis is the CBR ON(=OFF) time; the y-axis either
the flows' aggregate throughput as a fraction of the mean available
bandwidth (Figures 14/16) or the packet drop rate (Figure 15).

``sweep_jobs``/``reduce_sweep`` are the declarative halves the three
figure modules delegate to.  Figures 14 and 15 differ only in the
``figure`` label, which the content hash excludes, so with a result
cache they simulate once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import Protocol, tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import OscillationConfig

__all__ = ["default_protocols", "default_on_times", "reduce_sweep", "sweep_jobs"]


def default_protocols() -> list[Protocol]:
    return [tcp(8), tcp(2), tfrc(6)]


def default_on_times(scale: str) -> list[float]:
    if scale == "fast":
        return [0.05, 0.2, 0.8, 3.2]
    return [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]


def _sweep_config(
    scale: str,
    cbr_fraction: float,
    n_flows: int | None,
    **overrides,
) -> OscillationConfig:
    cfg = pick_config(OscillationConfig, scale, cbr_fraction=cbr_fraction, **overrides)
    if n_flows is None:
        n_flows = 10 if scale == "paper" else 6
    return replace(cfg, n_flows_a=n_flows, n_flows_b=0)


def sweep_jobs(
    figure: str,
    scale: str = "fast",
    cbr_fraction: float = 2.0 / 3.0,
    on_times: Sequence[float] | None = None,
    protocols: list[Protocol] | None = None,
    n_flows: int | None = None,
    **overrides,
) -> list[Job]:
    """One job per (protocol, ON time): identical-flow oscillation runs."""
    cfg = _sweep_config(scale, cbr_fraction, n_flows, **overrides)
    return indexed(
        job(
            figure,
            "oscillation",
            config=cfg,
            protocol=protocol,
            # ON time == OFF time; the square-wave period is twice that.
            params={"period_s": 2.0 * float(on_s), "protocol_b": None},
            scale=scale,
            tags={"on_s": float(on_s)},
        )
        for protocol in (protocols if protocols is not None else default_protocols())
        for on_s in (on_times if on_times is not None else default_on_times(scale))
    )


def reduce_sweep(results, metric: str, title: str, notes: str) -> Table:
    """Fold oscillation payloads into the Figures 14-16 table shape."""
    table = Table(title=title, columns=["protocol", "on_off_s", "value"], notes=notes)
    keyed = {
        (result.value["protocol_a"], result.job.tag("on_s")): result.value
        for result in results
    }
    for (name, on_s), payload in sorted(keyed.items()):
        value = payload["utilization"] if metric == "utilization" else payload["drop_rate"]
        table.add(name, on_s, value)
    return table
