"""Ablation: the paper's packet-conservation principle applied to RAP.

The paper demonstrates self-clocking on TFRC (the conservative_ option).
The same clamp on the other rate-based algorithm — on a loss event, limit
RAP's virtual window to the ACKs that arrived in the last RTT — repairs
its stabilization cost too.
"""

from __future__ import annotations

from functools import partial

from repro.experiments.ablation import STABILIZATION, ablation_jobs, ablation_reduce
from repro.experiments.protocols import rap
from repro.experiments.scenarios import CbrRestartConfig

__all__ = ["VARIANTS", "jobs", "reduce"]

VARIANTS = [
    (("RAP(1/256)",), rap(256), {}),
    (("RAP(1/256)+SC",), rap(256, conservative=True), {}),
]

jobs = partial(
    ablation_jobs, "ext_ablation_rap_packet_conservation", "cbr_restart", CbrRestartConfig, VARIANTS
)
reduce = partial(
    ablation_reduce,
    title="Ablation: packet conservation applied to RAP(1/256)",
    label_columns=["variant"],
    measures=STABILIZATION,
    notes="Mirrors the TFRC conservative_ option on the other rate-based algorithm.",
)
