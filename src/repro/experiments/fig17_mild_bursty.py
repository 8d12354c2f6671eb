"""Figure 17: TFRC vs TCP(1/8) under a mildly bursty loss pattern.

Paper: a repeating pattern of three losses each after 50 packet arrivals
followed by three each after 400 fits TFRC's ~6-interval averaging, so TFRC
holds a nearly constant loss estimate: it is considerably smoother than
TCP(1/8) and achieves slightly higher throughput.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.jobs import DropperSpec, Job, indexed, job
from repro.experiments.protocols import Protocol, tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import LossPatternConfig
from repro.net.droppers import mild_bursty_pattern

__all__ = [
    "MILD_BURSTY",
    "PROTOCOLS",
    "jobs",
    "loss_pattern_jobs",
    "loss_pattern_table",
    "reduce",
]

PROTOCOLS = [tfrc(6), tcp(8)]
#: The repeating 3 x 50, 3 x 400 arrival-gap pattern (Figures 17 and 19).
MILD_BURSTY = DropperSpec.count(mild_bursty_pattern())

LOSS_COLUMNS = [
    "protocol",
    "throughput_mbps",
    "smoothness_cov",
    "worst_ratio",
    "rate_band",
    "drops",
]


def loss_pattern_jobs(
    figure: str,
    protocols: Sequence[Protocol],
    dropper: DropperSpec,
    scale: str,
    **overrides,
) -> list[Job]:
    """Shared Figures 17-19 jobs: one single-flow ``loss_pattern`` run per
    protocol under ``dropper``; ``overrides`` are config fields."""
    cfg = pick_config(LossPatternConfig, scale, **overrides)
    return indexed(
        job(
            figure,
            "loss_pattern",
            config=cfg,
            protocol=protocol,
            params={"dropper": dropper},
        )
        for protocol in protocols
    )


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    return loss_pattern_jobs("fig17", PROTOCOLS, MILD_BURSTY, scale, **overrides)


def loss_pattern_table(results, title: str, notes: str) -> Table:
    """Shared Figures 17-19 table: one row per protocol, in job order."""
    table = Table(title=title, columns=list(LOSS_COLUMNS), notes=notes)
    for result in results:
        payload = result.value
        table.add(
            payload["protocol"],
            payload["throughput_bps"] / 1e6,
            payload["smoothness_cov"],
            payload["worst_ratio"],
            payload["rate_band"],
            payload["drops"],
        )
    return table


def reduce(results) -> Table:
    return loss_pattern_table(
        results,
        title="Figure 17: mildly bursty loss pattern (drops at 3x50 then 3x400 arrivals)",
        notes=(
            "Paper: TFRC considerably smoother than TCP(1/8) with slightly "
            "higher throughput.  smoothness_cov is the coefficient of "
            "variation of 1 s sending-rate bins (lower = smoother); "
            "worst_ratio is the paper's consecutive-bin metric (1 = smooth)."
        ),
    )
