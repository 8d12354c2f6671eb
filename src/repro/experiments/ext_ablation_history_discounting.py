"""Ablation: TFRC history discounting and the f(k) time-of-plenty metric.

Figure 13 runs TFRC with history discounting turned off to isolate the
loss-rate response.  Discounting lets TFRC forget an old loss interval
once the current one grows long, so enabling it should only help f(k).
"""

from __future__ import annotations

from functools import partial

from repro.experiments.ablation import ablation_jobs, ablation_reduce
from repro.experiments.protocols import tfrc
from repro.experiments.scenarios import DoublingConfig

__all__ = ["VARIANTS", "jobs", "reduce"]

# The first row is Figure 13's TFRC(8) job.
VARIANTS = [
    (("TFRC(8) no discounting",), tfrc(8, history_discounting=False), {}),
    (("TFRC(8) discounting",), tfrc(8, history_discounting=True), {}),
]

jobs = partial(
    ablation_jobs, "ext_ablation_history_discounting", "doubling", DoublingConfig, VARIANTS
)
reduce = partial(
    ablation_reduce,
    title="Ablation: TFRC history discounting and f(k)",
    label_columns=["variant"],
    measures={
        "f20": lambda value: dict(value["f_of_k"])[20],
        "f200": lambda value: dict(value["f_of_k"])[200],
    },
    notes="Paper disabled discounting in Figure 13 to isolate the "
    "loss-rate response; enabling it should only help.",
)
