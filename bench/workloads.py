"""The five benchmark workloads, built from ``--seed`` and run one round at a time.

Every workload drives the product through its public API only and is a
closed loop: one job at a time, or ``workers`` worker processes fed by
the executor.  ``build`` turns the seed into a :class:`Plan` (job
construction and hashing — part of ``setup_s``); ``run`` executes one
round of it and returns the texts whose digests must repeat exactly.

Sizes are chosen so one round takes 3-5 s on the 2-core sandbox the
benchmark was sized on, which lets a 10 s measurement hold at least
three rounds (see README.md for what was cut to get there and why).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Optional

from repro.experiments import (
    ALL_FIGURES,
    DropperSpec,
    ExecutionError,
    LossPatternConfig,
    ResultCache,
    execute_job,
    iiad,
    job,
    make_executor,
    rap,
    sqrt,
    tcp,
    tcp_b,
    tear,
    tfrc,
)
from repro.experiments.costmodel import CostModel
from repro.experiments.jobs import Job
from repro.experiments.replay import replay_job
from repro.telemetry.trace import TraceReader

__all__ = [
    "Outcome",
    "Plan",
    "RoundContext",
    "WORKLOADS",
    "Workload",
    "canonical_text",
    "make_plan",
]

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def canonical_text(value: Any) -> str:
    """The JSON text two payloads are compared by (NaN-safe, key-sorted)."""
    return json.dumps(value, allow_nan=True, sort_keys=True)


@dataclass
class Plan:
    """The generated inputs of one workload: named groups of jobs."""

    groups: dict[str, list[Job]]
    hashes: list[str] = field(default_factory=list)

    @property
    def jobs(self) -> list[Job]:
        return [jb for group in self.groups.values() for jb in group]


@dataclass
class Outcome:
    """What one round produced."""

    outputs: dict[str, str] = field(default_factory=dict)  # digested after timing
    jobs: int = 0  # jobs returned
    failed_jobs: int = 0  # raised, retried or came back degraded
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))


@dataclass
class RoundContext:
    """Where a round puts its caches and, in the traced pass, its spans."""

    workers: int
    scratch: pathlib.Path
    tracer: Any = None  # ledger.Tracer in the traced pass
    reports: list[dict] = field(default_factory=list)  # ExecutionReport per map
    caches: list[ResultCache] = field(default_factory=list)
    trace_bytes: int = 0

    def span(self, layer: str, name: str, job: Optional[str] = None) -> ContextManager:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(layer, name, job)

    def cache(self, name: str) -> ResultCache:
        root = self.scratch / name
        if self.tracer is None:
            cache = ResultCache(root)
        else:
            from ledger import TimedCache

            cache = TimedCache(root, self.tracer)
        self.caches.append(cache)
        return cache

    @property
    def run_log(self) -> Optional[pathlib.Path]:
        """Per-job wall times come from the product's own run log, which
        only the traced pass switches on."""
        return self.scratch / "run.jsonl" if self.tracer is not None else None

    def executor(self, workers: int):
        """Always an in-memory cost model and the product's default
        dispatch, pool and transport: no mode arguments, so the benchmark
        survives those modes being deleted."""
        return make_executor(workers, cost_model=CostModel(), run_log=self.run_log)

    def map(self, executor, jobs: list[Job], cache: ResultCache, label: str, out: Outcome):
        """One ``executor.map`` with span, report and failure accounting."""
        try:
            with self.span("experiments.executor", "executor.map", label):
                results = executor.map(jobs, cache)
        except ExecutionError:
            traceback.print_exc(file=sys.stderr)
            out.failed_jobs += 1
            results = []
        report = executor.last_report
        self.reports.append(report.as_dict())
        out.failed_jobs += report.retries + report.timeouts + int(report.degraded)
        out.jobs += len(results)
        return results


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], dict[str, list[Job]]]  # (seed, smoke) -> job groups
    run: Callable[[Plan, RoundContext], Outcome]
    fold_jobs: Callable[[Plan], list[Job]]  # what the traced pass profiles
    parallel: bool = False  # runs on min(2, nproc) worker processes


def make_plan(
    workload: Workload,
    seed: int,
    smoke: bool,
    span: Callable[..., ContextManager] = lambda *names: nullcontext(),
) -> Plan:
    """Generate ``workload``'s inputs from ``seed`` and hash them.

    Both steps are set-up, not measured work; the traced pass passes its
    ``span`` to time them separately.
    """
    with span("experiments.jobs", "jobs.build"):
        plan = Plan(workload.build(seed, smoke))
    with span("experiments.jobs", "jobs.hash"):
        plan.hashes = [jb.content_hash for jb in plan.jobs]
    return plan


def _first_of_each_group(plan: Plan) -> list[Job]:
    return [group[0] for group in plan.groups.values()]


# ---------------------------------------------------------------------------
# sweep_serial / sweep_parallel2: whole figures, exactly as `repro run` does
# ---------------------------------------------------------------------------

#: Figure -> overrides passed to ``module.jobs("fast", **overrides)``.  An
#: empty dict is the unmodified figure, whose table must equal the
#: committed ``results/<module>.txt``.  fig07 is cut to two square-wave
#: periods of 12 simulated seconds: at full size it alone costs 11 s a
#: round, and the oscillation scenario (CBR square wave, TCP vs TFRC on
#: the RED dumbbell) is most of the real 20-figure sweep, so it stays in.
SWEEP_FIGURES: dict[str, dict] = {
    "fig06": {},
    "fig07": {
        "periods": (0.4, 4.0),
        "min_duration_s": 12.0,
        "max_duration_s": 12.0,
        "warmup_s": 4.0,
    },
    "fig11": {},
    "fig17": {},
    "fig19": {},
    "fig20": {},
}
SMOKE_FIGURES = ("fig11", "fig17", "fig20")


def _build_sweep(seed: int, smoke: bool) -> dict[str, list[Job]]:
    # Figure jobs are fixed by the product; the seed changes nothing here.
    figures = SMOKE_FIGURES if smoke else tuple(SWEEP_FIGURES)
    return {fig: ALL_FIGURES[fig].jobs("fast", **SWEEP_FIGURES[fig]) for fig in figures}


def _run_sweep(plan: Plan, ctx: RoundContext) -> Outcome:
    out = Outcome()
    cache = ctx.cache("sweep")
    executor = ctx.executor(ctx.workers)
    try:
        for figure, jobs in plan.groups.items():
            module = ALL_FIGURES[figure]
            results = ctx.map(executor, jobs, cache, figure, out)
            if not results:
                continue
            with ctx.span("reduce", "module.reduce", figure):
                table = module.reduce(results)
            with ctx.span("reduce", "Table.format", figure):
                text = table.format()
            out.outputs[figure] = text
            golden = RESULTS_DIR / f"{module.__name__.rpartition('.')[2]}.txt"
            if not SWEEP_FIGURES[figure] and golden.exists():
                out.check(f"{figure} == results/{golden.name}", golden.read_text() == text + "\n")
    finally:
        executor.close()
    return out


# ---------------------------------------------------------------------------
# single_path_cc: one flow, no RED, no dumbbell; every cc family, two loss rates
# ---------------------------------------------------------------------------

LOSS_RATES = (0.002, 0.05)  # ack-clocked vs RTO/timer-cancel heavy


def _protocols() -> list:
    return [
        tcp(),
        tcp_b(1 / 8),
        tfrc(6),
        tfrc(6, conservative=True),
        rap(),
        sqrt(),
        iiad(),
        tear(),
    ]


def _build_single_path(seed: int, smoke: bool) -> dict[str, list[Job]]:
    # How many packets a slowly-responsive flow sends in a minute at
    # p = 0.002 depends heavily on where the few losses fall (IIAD: +-34 %
    # between dropper seeds, the sixteen jobs together +-8 %), and a
    # workload whose size moves with the seed cannot resolve a 10 % change
    # in speed.  So the ack-clocked half keeps one loss realisation and
    # --seed draws the dropper seeds of the timeout-heavy half only, which
    # is a ninth of the packets and varies far less.
    streams = {LOSS_RATES[0]: random.Random(1), LOSS_RATES[1]: random.Random(seed)}
    config = (
        LossPatternConfig(duration_s=8.0, warmup_s=2.0)
        if smoke
        else LossPatternConfig(duration_s=60.0, warmup_s=10.0)
    )
    return {
        "single_path": [
            job(
                "bench",
                "loss_pattern",
                config=config,
                protocol=protocol,
                params={
                    "dropper": DropperSpec("bernoulli", (p, streams[p].randrange(2**31)))
                },
            )
            for p in LOSS_RATES
            for protocol in _protocols()
        ]
    }


def _run_single_path(plan: Plan, ctx: RoundContext) -> Outcome:
    out = Outcome()
    values = []
    for index, jb in enumerate(plan.jobs):
        try:
            with ctx.span("experiments.jobs", "execute_job", f"single_path#{index}"):
                values.append(execute_job(jb))
            out.jobs += 1
        except Exception:  # a failed job is counted, and the round goes on
            traceback.print_exc(file=sys.stderr)
            out.failed_jobs += 1
    out.outputs["payloads"] = canonical_text(values)
    return out


def _fold_single_path(plan: Plan) -> list[Job]:
    # All sixteen, so every cc family weighs the same in the ledger, at a
    # third of the duration so the profiled pass stays inside a run.
    return [
        dataclasses.replace(
            jb,
            config=dataclasses.replace(
                jb.config, duration_s=min(jb.config.duration_s, 20.0)
            ),
        )
        for jb in plan.jobs
    ]


# ---------------------------------------------------------------------------
# dispatch_smalljobs: the executor/cache pipeline does most of the work
# ---------------------------------------------------------------------------

DUPLICATE_SHARE = 0.10


def _build_smalljobs(seed: int, smoke: bool) -> dict[str, list[Job]]:
    rng = random.Random(seed)
    closed_form, simulations = (1200, 4) if smoke else (12000, 40)
    jobs: list[Job] = []
    for _ in range(closed_form):
        if jobs and rng.random() < DUPLICATE_SHARE:
            jobs.append(jobs[rng.randrange(len(jobs))])
        elif rng.random() < 0.5:
            jobs.append(
                job("bench", "timeout_models", params={"p": rng.uniform(0.001, 0.9)})
            )
        else:
            jobs.append(
                job(
                    "bench",
                    "analysis_acks",
                    params={
                        "b": rng.uniform(0.02, 0.9),
                        "p": rng.uniform(0.001, 0.5),
                        "delta": 0.1,
                    },
                )
            )
    # Short simulations (~15 ms each, predicted above the executor's
    # 10 ms inline threshold): without them every job takes the inline
    # path and the pool and transport are never exercised.  Their loss is
    # periodic, not seeded, so the packets this workload sends - a small
    # share of its time - are the same for every seed.
    config = LossPatternConfig(duration_s=5.0, warmup_s=1.0)
    protocols = [tcp(), tfrc(6), rap(), sqrt()]
    for index in range(simulations):
        jobs.append(
            job(
                "bench",
                "loss_pattern",
                config=config,
                protocol=protocols[index % len(protocols)],
                params={"dropper": DropperSpec("periodic", (60 + index,))},
            )
        )
    rng.shuffle(jobs)
    return {"smalljobs": jobs}


def _run_smalljobs(plan: Plan, ctx: RoundContext) -> Outcome:
    out = Outcome()
    jobs = plan.jobs
    cache = ctx.cache("smalljobs")
    executor = ctx.executor(ctx.workers)
    try:
        cold = ctx.map(executor, jobs, cache, "cold", out)
        cold_report = executor.last_report
        warm = ctx.map(executor, jobs, cache, "warm", out)
    finally:
        executor.close()
    cold_text = canonical_text([result.value for result in cold])
    out.outputs["values"] = cold_text
    out.check("warm values == cold values", canonical_text([r.value for r in warm]) == cold_text)
    out.check("warm map is all cache hits", bool(warm) and all(r.cached for r in warm))
    if executor.workers > 1:
        out.check(
            "pool and transport really ran (inlined < computed)",
            cold_report.inlined < cold_report.computed,
        )
    return out


def _fold_smalljobs(plan: Plan) -> list[Job]:
    first: dict[str, Job] = {}
    for jb in plan.jobs:
        first.setdefault(jb.scenario, jb)
    return list(first.values())


# ---------------------------------------------------------------------------
# trace_roundtrip: telemetry the other way round - export, store, load, replay
# ---------------------------------------------------------------------------

#: Both replayable scenario families, cut down through the figures' own
#: override arguments (fig03 at full size is 4 s a job).
FIG03_SHORT = {"cbr_stop": 20.0, "cbr_restart": 28.0, "end": 40.0}


def _build_trace(seed: int, smoke: bool) -> dict[str, list[Job]]:
    oscillation = ALL_FIGURES["fig07"].jobs("fast", **SWEEP_FIGURES["fig07"])[:1]
    groups = {"fig07": oscillation}
    if not smoke:
        restart = ALL_FIGURES["fig03"].jobs("fast", **FIG03_SHORT)
        groups = {"fig03": [restart[0], restart[2]], "fig07": oscillation}  # TCP, TFRC
    return {
        name: [dataclasses.replace(jb, trace=True) for jb in jobs]
        for name, jobs in groups.items()
    }


def _run_trace(plan: Plan, ctx: RoundContext) -> Outcome:
    out = Outcome()
    jobs = plan.jobs
    cache = ctx.cache("traces")
    executor = ctx.executor(0)
    try:
        results = ctx.map(executor, jobs, cache, "traced", out)
    finally:
        executor.close()
    for index, result in enumerate(results):
        label = f"{result.job.figure}#{result.job.index}"
        text = cache.load_trace(result.job)
        out.check(f"{label} trace stored", text is not None)
        if text is None:
            continue
        with ctx.span("telemetry", "TraceReader.loads", label):
            reader = TraceReader.loads(text)
        with ctx.span("experiments.replay", "replay_job", label):
            replayed = replay_job(result.job, reader)
        out.check(
            f"{label} replayed == live payload",
            canonical_text(replayed) == canonical_text(result.value),
        )
        ctx.trace_bytes += len(text)
        out.outputs[f"trace.{index}"] = text
    out.outputs["payloads"] = canonical_text([result.value for result in results])
    return out


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sweep_serial", _build_sweep, _run_sweep, _first_of_each_group),
        Workload(
            "sweep_parallel2", _build_sweep, _run_sweep, _first_of_each_group, parallel=True
        ),
        Workload("single_path_cc", _build_single_path, _run_single_path, _fold_single_path),
        Workload(
            "dispatch_smalljobs", _build_smalljobs, _run_smalljobs, _fold_smalljobs, parallel=True
        ),
        Workload("trace_roundtrip", _build_trace, _run_trace, _first_of_each_group),
    )
}
