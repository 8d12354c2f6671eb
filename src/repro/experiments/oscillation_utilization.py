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

from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import OscillationConfig

__all__ = ["N_FLOWS", "ON_TIMES", "PROTOCOLS", "reduce_sweep", "sweep_jobs"]

PROTOCOLS = [tcp(8), tcp(2), tfrc(6)]
#: Scale -> the CBR ON (= OFF) times swept, in seconds.
ON_TIMES = {
    "fast": [0.05, 0.2, 0.8, 3.2],
    "paper": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
}
#: Scale -> how many identical flows share the link (the paper's ten).
N_FLOWS = {"fast": 6, "paper": 10}


def sweep_jobs(figure: str, scale: str, cbr_fraction: float, **overrides) -> list[Job]:
    """One job per (protocol, ON time): identical-flow oscillation runs;
    ``overrides`` are :class:`OscillationConfig` fields."""
    cfg = pick_config(OscillationConfig, scale, cbr_fraction=cbr_fraction, **overrides)
    cfg = replace(cfg, n_flows_a=N_FLOWS[scale], n_flows_b=0)
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
        for protocol in PROTOCOLS
        for on_s in ON_TIMES[scale]
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
