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

from repro.experiments.fig17_mild_bursty import loss_pattern_jobs, loss_pattern_table
from repro.experiments.jobs import DropperSpec, Job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.runner import Table
from repro.net.droppers import severe_bursty_phases

__all__ = ["PHASES", "PROTOCOLS", "jobs", "reduce"]

PROTOCOLS = [tfrc(6), tcp(8), tcp(2)]
#: Scale -> the ``(duration_s, drop_every_n)`` phases of the pattern.
PHASES = {"fast": [(3.0, 200), (1.0, 4)], "paper": severe_bursty_phases()}


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    dropper = DropperSpec.phase(PHASES[scale])
    return loss_pattern_jobs("fig18", PROTOCOLS, dropper, scale, **overrides)


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
