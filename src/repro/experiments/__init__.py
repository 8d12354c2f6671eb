"""One experiment module per paper figure, plus shared scenario machinery.

:func:`run_figures` is the one road from registry names to their
:class:`~repro.experiments.runner.Table` objects, in one ``map``:
``run_figures(["fig04", "fig05"])`` regenerates the data behind paper
figures 4 and 5, simulating the points they share once (``scale="fast"``
is the CI-sized configuration, ``scale="paper"`` the paper's
parameters).  :func:`run_figure` is its one-name form.  The CLI, the
benchmark harness and the tests all go through it.

Every figure module is the declarative pair underneath:
``jobs(scale) -> list[Job]`` describes the simulation points and
``reduce(results) -> Table`` formats them, so work can be executed in
process or across worker processes (:class:`Executor`) and/or against
the content-addressed :class:`ResultCache`.  Importing this
package imports every module that registers a ``@scenario``, so a worker
that unpickles a :class:`Job` has the whole registry.
"""

import dataclasses
from itertools import islice
from typing import Optional, Sequence

from repro.experiments import (
    ext_ablation_history_discounting,
    ext_ablation_rap_packet_conservation,
    ext_ablation_red_vs_droptail,
    ext_ablation_tfrc_conservative_c,
    ext_ablation_tfrc_oscillation_prevention,
    ext_aggressiveness,
    ext_fig11_simulated_validation,
    ext_fig20_simulated_validation,
    ext_queue_dynamics,
    ext_responsiveness,
    fig03_cbr_restart,
    fig04_stabilization_time,
    fig05_stabilization_cost,
    fig06_flash_crowd,
    fig07_tcp_vs_tfrc,
    fig08_tcp_vs_tcp8,
    fig09_tcp_vs_sqrt,
    fig10_convergence_tcp,
    fig11_convergence_analysis,
    fig12_convergence_tfrc,
    fig13_fk_utilization,
    fig14_oscillation_utilization,
    fig15_oscillation_droprate,
    fig16_extreme_oscillation,
    fig17_mild_bursty,
    fig18_severe_bursty,
    fig19_iiad_sqrt,
    fig20_timeout_models,
)
from repro.experiments.cache import CacheStats, ResultCache, default_cache_dir
from repro.experiments.executor import (
    ExecutionError,
    ExecutionReport,
    Executor,
    JobResult,
    make_executor,
)
from repro.experiments.faults import FaultSpec, InjectedFault
from repro.experiments.jobs import DropperSpec, Job, execute_job, job
from repro.experiments.runlog import RunLog
from repro.experiments.protocols import (
    Protocol,
    iiad,
    rap,
    sqrt,
    tcp,
    tcp_b,
    tear,
    tfrc,
)
from repro.experiments.runner import Table, pick_config
from repro.experiments.scenarios import (
    CbrRestartConfig,
    ConvergenceConfig,
    DoublingConfig,
    FlashCrowdConfig,
    LossPatternConfig,
    OscillationConfig,
)

EXTENSIONS = {
    "responsiveness": ext_responsiveness,
    "queue_dynamics": ext_queue_dynamics,
    "aggressiveness": ext_aggressiveness,
    "fig11_simulated_validation": ext_fig11_simulated_validation,
    "fig20_simulated_validation": ext_fig20_simulated_validation,
    "ablation_tfrc_conservative_c": ext_ablation_tfrc_conservative_c,
    "ablation_red_vs_droptail": ext_ablation_red_vs_droptail,
    "ablation_history_discounting": ext_ablation_history_discounting,
    "ablation_rap_packet_conservation": ext_ablation_rap_packet_conservation,
    "ablation_tfrc_oscillation_prevention": ext_ablation_tfrc_oscillation_prevention,
}

ALL_FIGURES = {
    "fig03": fig03_cbr_restart,
    "fig04": fig04_stabilization_time,
    "fig05": fig05_stabilization_cost,
    "fig06": fig06_flash_crowd,
    "fig07": fig07_tcp_vs_tfrc,
    "fig08": fig08_tcp_vs_tcp8,
    "fig09": fig09_tcp_vs_sqrt,
    "fig10": fig10_convergence_tcp,
    "fig11": fig11_convergence_analysis,
    "fig12": fig12_convergence_tfrc,
    "fig13": fig13_fk_utilization,
    "fig14": fig14_oscillation_utilization,
    "fig15": fig15_oscillation_droprate,
    "fig16": fig16_extreme_oscillation,
    "fig17": fig17_mild_bursty,
    "fig18": fig18_severe_bursty,
    "fig19": fig19_iiad_sqrt,
    "fig20": fig20_timeout_models,
}



def table_filename(name: str) -> str:
    """Where a registry entry's table lives under ``results/`` or ``--out``:
    its module's name, so a run into ``results/`` regenerates it in place."""
    module = {**ALL_FIGURES, **EXTENSIONS}[name]
    return module.__name__.rpartition(".")[2] + ".txt"


def run_figures(
    names: Sequence[str],
    scale: str = "fast",
    *,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    trace: bool = False,
    **overrides,
) -> dict[str, Table]:
    """Regenerate registry entries' tables, by name, in one ``map``.

    Every entry's ``module.jobs(scale, **overrides)`` goes into one
    ``executor.map`` (in process when ``executor`` is None), so a point
    two entries share is computed once; each entry's slice of the
    results, in job order, goes to its ``module.reduce``.  ``trace=True``
    also records a telemetry trace per job, stored beside its cached
    result.  ``executor.last_report`` holds the run's accounting
    afterwards.
    """
    runnable = {**ALL_FIGURES, **EXTENSIONS}
    unknown = [name for name in names if name not in runnable]
    if unknown:
        raise KeyError(
            f"unknown figure {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(runnable)}"
        )
    if trace and cache is None:
        raise ValueError(
            "--trace requires the cache: trace artifacts are stored beside "
            "cached results (drop --no-cache)"
        )
    job_lists = [runnable[name].jobs(scale, **overrides) for name in names]
    jobs = [jb for job_list in job_lists for jb in job_list]
    if trace:
        jobs = [dataclasses.replace(jb, trace=True) for jb in jobs]
    results = iter((executor or Executor()).map(jobs, cache))
    return {
        name: runnable[name].reduce(list(islice(results, len(job_list))))
        for name, job_list in zip(names, job_lists)
    }


def run_figure(name: str, scale: str = "fast", **options) -> Table:
    """Regenerate one figure (or extension) table: ``run_figures([name])``."""
    return run_figures([name], scale, **options)[name]


__all__ = [
    "ALL_FIGURES",
    "EXTENSIONS",
    "CacheStats",
    "CbrRestartConfig",
    "ConvergenceConfig",
    "DoublingConfig",
    "DropperSpec",
    "ExecutionError",
    "ExecutionReport",
    "Executor",
    "FaultSpec",
    "InjectedFault",
    "FlashCrowdConfig",
    "Job",
    "JobResult",
    "LossPatternConfig",
    "OscillationConfig",
    "Protocol",
    "ResultCache",
    "RunLog",
    "Table",
    "default_cache_dir",
    "execute_job",
    "iiad",
    "job",
    "make_executor",
    "pick_config",
    "rap",
    "run_figure",
    "run_figures",
    "sqrt",
    "table_filename",
    "tcp",
    "tcp_b",
    "tear",
    "tfrc",
]
