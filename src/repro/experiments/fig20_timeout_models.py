"""Figure 20: throughput equations with and without timeouts (Appendix A).

Pure closed form: the sending rate in packets/RTT as a function of the
packet drop rate p for the pure-AIMD model, the AIMD-with-timeouts model,
and the Padhye Reno model.  The AIMD-with-timeouts line upper-bounds Reno
at high loss; pure AIMD applies only below p ~ 1/3.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.timeouts import figure20_series
from repro.experiments.jobs import Job, indexed, job, scenario
from repro.experiments.runner import Table

__all__ = ["default_drop_rates", "jobs", "reduce", "timeout_models"]


def default_drop_rates(scale: str = "fast") -> list[float]:
    return [0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.33, 0.5, 0.6, 0.7, 0.8, 0.9]


@scenario("timeout_models")
def timeout_models(jb: Job) -> list[float]:
    """Figure 20: ``[pure AIMD, AIMD with timeouts, Reno]`` packets/RTT, the
    three Appendix A response models at one drop rate."""
    row = figure20_series([jb.param("p")])[0]
    return [row.pure_aimd, row.aimd_with_timeouts, row.reno]


def jobs(scale: str = "fast", p_values: Sequence[float] | None = None) -> list[Job]:
    return indexed(
        job("fig20", "timeout_models", params={"p": float(p)}, scale=scale)
        for p in (
            list(p_values) if p_values is not None else default_drop_rates(scale)
        )
    )


def reduce(results) -> Table:
    table = Table(
        title="Figure 20: sending rate (packets/RTT) vs drop rate, three models",
        columns=["p", "pure_aimd", "aimd_with_timeouts", "reno_tcp"],
        notes=(
            "Appendix A: pure AIMD = sqrt(1.5/p) (valid below p~1/3); AIMD "
            "with timeouts = (1/(1-p)) / (2^(1/(1-p)) - 1); Reno = Padhye "
            "model.  The timeout models extend below one packet per RTT."
        ),
    )
    for result in results:
        pure_aimd, aimd_with_timeouts, reno = result.value
        table.add(result.job.param("p"), pure_aimd, aimd_with_timeouts, reno)
    return table
