"""Ablation: RED vs DropTail at the bottleneck for the CBR restart.

Section 4.1.1 reports that self-clocking's benefit was seen with both
queue disciplines, so it is not a RED artifact.  The DropTail buffer has
the RED configuration's depth (2.5 x BDP).
"""

from __future__ import annotations

from functools import partial

from repro.experiments.ablation import STABILIZATION, ablation_jobs, ablation_reduce
from repro.experiments.protocols import tfrc
from repro.experiments.scenarios import CbrRestartConfig

__all__ = ["VARIANTS", "jobs", "reduce"]

# RED is the scenario's default: those rows carry no ``aqm`` param, so
# they are Figure 4's TFRC(256) and TFRC(256)+SC jobs.
VARIANTS = [
    ((queue, protocol.name), protocol, params)
    for queue, params in (("red", {}), ("droptail", {"aqm": "droptail"}))
    for protocol in (tfrc(256), tfrc(256, conservative=True))
]

jobs = partial(
    ablation_jobs, "ext_ablation_red_vs_droptail", "cbr_restart", CbrRestartConfig, VARIANTS
)
reduce = partial(
    ablation_reduce,
    title="Ablation: RED vs DropTail bottleneck (CBR restart)",
    label_columns=["queue", "variant"],
    measures=STABILIZATION,
    notes="Paper: the self-clocking benefit was seen with both AQMs.",
)
