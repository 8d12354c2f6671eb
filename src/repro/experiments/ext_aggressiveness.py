"""Extension: measuring aggressiveness directly (Section 3's other metric).

The maximum increase in the sending rate in one RTT absent congestion,
measured by
:func:`~repro.experiments.ext_responsiveness.measure_aggressiveness_pkts_per_rtt`
and set beside the analytic ``a`` of AIMD(a, b).
"""

from __future__ import annotations

import math

from repro.cc.aimd import tcp_compatible_a
from repro.experiments.jobs import Job, indexed, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.runner import Table

__all__ = ["jobs", "reduce"]


def jobs(scale: str = "fast", **overrides) -> list[Job]:
    """``overrides`` are keyword arguments of the measurement function."""
    protocols = [
        ("TCP(1/2)", tcp(2), tcp_compatible_a(0.5)),
        ("TCP(1/8)", tcp(8), tcp_compatible_a(0.125)),
        ("TFRC(6) no-disc", tfrc(6, history_discounting=False), math.nan),
        ("TFRC(6) disc", tfrc(6, history_discounting=True), math.nan),
    ]
    return indexed(
        job(
            "ext_aggressiveness",
            "aggressiveness",
            protocol=protocol,
            params=overrides,
            scale=scale,
            tags={"label": label, "analytic_a": analytic},
        )
        for label, protocol, analytic in protocols
    )


def reduce(results) -> Table:
    table = Table(
        title="Aggressiveness: max control increase per RTT absent congestion",
        columns=["protocol", "measured_pkts_per_rtt", "analytic_a"],
        notes=(
            "AIMD(a, b) increases by exactly a packets/RTT; TFRC's increase "
            "is far smaller and grows with history discounting (paper: "
            "0.14-0.28 packets/sec, i.e. ~0.007-0.014 packets/RTT at 50 ms)."
        ),
    )
    for result in results:
        table.add(result.job.tag("label"), result.value, result.job.tag("analytic_a"))
    return table
