"""Figure 11: analytical number of ACKs to 0.1-fair convergence.

Pure closed form: E[#ACKs] = log_{1-bp}(delta) for AIMD(a, b) flows under
packet mark rate p (Section 4.2.2's expected-window analysis).  The paper
plots delta = 0.1, p = 0.1 and notes other p values give almost identically
shaped curves.
"""

from __future__ import annotations

from repro.analysis.convergence import acks_to_fairness
from repro.experiments.jobs import Job, indexed, job, scenario
from repro.experiments.runner import Table

__all__ = ["BS", "DELTA", "P", "analysis_acks", "jobs", "reduce"]

#: The decrease factors b, at both scales (a closed form costs nothing).
BS = [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
#: The paper's mark rate p and fairness margin delta.
P = DELTA = 0.1


@scenario("analysis_acks")
def analysis_acks(jb: Job) -> float:
    """Figure 11: closed-form E[#ACKs] to δ-fair convergence at one ``b``."""
    return acks_to_fairness(jb.param("b"), jb.param("p"), jb.param("delta"))


def jobs(scale: str = "fast") -> list[Job]:
    return indexed(
        job("fig11", "analysis_acks", params={"b": b, "p": P, "delta": DELTA})
        for b in BS
    )


def reduce(results) -> Table:
    first = results[0].job
    p = first.param("p")
    delta = first.param("delta")
    table = Table(
        title="Figure 11: expected ACKs to 0.1-fairness (analysis)",
        columns=["b", "expected_acks"],
        notes=(
            f"log_(1-b*p)(delta) with p={p:g}, delta={delta:g}.  Paper: fast "
            "for b > ~0.2, exponentially longer for smaller b."
        ),
    )
    for result in results:
        table.add(result.job.param("b"), result.value)
    return table
