"""Ablation: TFRC's optional oscillation prevention (RFC 3448 Section 4.5).

Not used by the paper: scaling the instantaneous rate by
R_sqmean / sqrt(R_sample) damps the queue oscillations a population of
TFRC flows drives at a RED bottleneck (see :mod:`ext_queue_dynamics`,
whose TFRC(6)/RED job is this table's first row).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from repro.experiments.ablation import ablation_jobs, ablation_reduce
from repro.experiments.ext_queue_dynamics import QueueDynamicsConfig
from repro.experiments.protocols import tfrc

__all__ = ["VARIANTS", "jobs", "reduce"]

VARIANTS = [
    (("TFRC(6)",), tfrc(6), {"aqm": "red"}),
    (("TFRC(6)+OP",), tfrc(6, oscillation_prevention=True), {"aqm": "red"}),
]

jobs = partial(
    ablation_jobs,
    "ext_ablation_tfrc_oscillation_prevention",
    "queue_dynamics",
    QueueDynamicsConfig,
    VARIANTS,
)
reduce = partial(
    ablation_reduce,
    title="Ablation: TFRC oscillation prevention (RFC 3448 4.5)",
    label_columns=["variant"],
    measures={name: itemgetter(name) for name in ("mean_queue_pkts", "queue_cov", "loss_rate")},
    notes="The paper runs TFRC without this optional damping.",
)
