"""Ablation: the constant C of TFRC's conservative_ cap (Section 4.1.1).

With conservative_ set, TFRC's sending rate after a loss is capped at C
times the rate the receiver reported.  The paper used C = 1.1; the ns-2
default was 1.5.  The constant barely matters next to having the cap at
all.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.ablation import STABILIZATION, ablation_jobs, ablation_reduce
from repro.experiments.protocols import tfrc
from repro.experiments.scenarios import CbrRestartConfig

__all__ = ["VARIANTS", "jobs", "reduce"]

# C = 1.1 is the sender's default: that row leaves conservative_c out, so
# it is Figure 4's TFRC(256)+SC job and a cache hit.
VARIANTS = [
    (("TFRC(256)",), tfrc(256), {}),
    (("TFRC(256)+SC(C=1.1)",), tfrc(256, conservative=True), {}),
    (("TFRC(256)+SC(C=1.5)",), tfrc(256, conservative=True, conservative_c=1.5), {}),
]

jobs = partial(
    ablation_jobs, "ext_ablation_tfrc_conservative_c", "cbr_restart", CbrRestartConfig, VARIANTS
)
reduce = partial(
    ablation_reduce,
    title="Ablation: TFRC(256) conservative cap constant C",
    label_columns=["variant"],
    measures=STABILIZATION,
    notes="Paper used C=1.1; the ns-2 default was 1.5.",
)
