"""Figure 18: TFRC vs TCP(1/8) under a severely bursty loss pattern.

Paper: a long low-congestion phase (every 200th packet dropped) followed by
a heavy-congestion phase (every 4th dropped) is designed so that the heavy
phase spans about six loss intervals — enough for TFRC to lose all memory
of the good times — while the low phase spans only three or four, never
fully displacing the bad memory.  TFRC then does worse than TCP(1/8), and
even than TCP(1/2), in both smoothness and throughput.

At the scaled-down operating point the flow's packet rate differs from the
paper's, so the *fast* phase durations are adjusted (low phase 3 s instead
of 6 s) to preserve the pattern's defining property: 3-4 loss intervals in
the low phase, 6+ in the heavy phase.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig17_mild_bursty import loss_pattern_table
from repro.experiments.jobs import DropperSpec, Job, indexed, job
from repro.experiments.protocols import Protocol, tcp, tfrc
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import LossPatternConfig
from repro.net.droppers import severe_bursty_phases

__all__ = ["default_protocols", "default_phases", "jobs", "reduce"]


def default_protocols() -> list[Protocol]:
    return [tfrc(6), tcp(8), tcp(2)]


def default_phases(scale: str) -> list[tuple[float, int]]:
    if scale == "fast":
        return [(3.0, 200), (1.0, 4)]
    return severe_bursty_phases()


def jobs(
    scale: str = "fast",
    protocols: list[Protocol] | None = None,
    phases: Sequence[tuple[float, int]] | None = None,
    **overrides,
) -> list[Job]:
    cfg = pick_config(LossPatternConfig, scale, **overrides)
    dropper = DropperSpec.phase(
        list(phases) if phases is not None else default_phases(scale)
    )
    return indexed(
        job(
            "fig18",
            "loss_pattern",
            config=cfg,
            protocol=protocol,
            params={"dropper": dropper},
            scale=scale,
        )
        for protocol in (protocols if protocols is not None else default_protocols())
    )


def reduce(results) -> Table:
    return loss_pattern_table(
        results,
        title="Figure 18: severely bursty loss pattern (low phase then 1-in-4 drops)",
        notes=(
            "Paper: TFRC performs considerably worse than TCP(1/8), and even "
            "worse than TCP(1/2), in both smoothness and throughput — the "
            "pattern exploits the loss-interval averaging."
        ),
    )
