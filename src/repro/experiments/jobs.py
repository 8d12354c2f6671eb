"""Declarative experiment jobs: the unit of work behind every figure.

The experiment layer is split into three stages:

1. **Define** — each figure module exposes ``jobs(scale) -> list[Job]``.
   A :class:`Job` is a pure, picklable description of one simulation
   point: ``(scenario, scenario_config, protocol, params, seed,
   scale)``.  Jobs carry a stable content hash so identical work is
   recognized across figures, runs and processes.
2. **Execute** — an executor from :mod:`repro.experiments.executor` maps
   :func:`execute_job` over the jobs (serially or across a process pool)
   and returns results in job order, optionally consulting the
   content-addressed cache in :mod:`repro.experiments.cache`.
3. **Reduce** — each figure module exposes ``reduce(results) -> Table``
   which folds the per-job payloads into the figure's table.  Reduction
   is pure formatting: it never runs simulations.

Job payloads are restricted to JSON-native values (dicts with string
keys, lists, strings, floats, ints, bools, None) so that a result read
back from the cache is byte-identical to one computed in process, and so
parallel execution cannot perturb output formatting.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.experiments.protocols import Protocol

__all__ = [
    "DropperSpec",
    "Job",
    "SCENARIOS",
    "canonical",
    "cbr_restart_payload",
    "content_hash",
    "execute_job",
    "indexed",
    "job",
    "oscillation_payload",
    "scenario",
]

#: Bump when the meaning of job payloads changes; combined with the
#: library version it salts the on-disk result cache (see
#: :mod:`repro.experiments.cache`), so stale blobs are never reused.
JOBS_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DropperSpec:
    """A picklable description of an imposed loss pattern.

    ``kind`` selects the dropper class; ``args`` its positional payload:

    * ``("count", gaps)`` — :class:`~repro.net.droppers.CountBasedDropper`
      with the given arrival-gap cycle;
    * ``("phase", phases)`` — :class:`~repro.net.droppers.PhaseDropper`
      with ``(duration_s, drop_every_n)`` phases;
    * ``("periodic", (period,))`` — drop every Nth packet;
    * ``("bernoulli", (p, seed))`` — independent loss with probability p.
    """

    kind: str
    args: tuple = ()

    @classmethod
    def count(cls, gaps: Sequence[int]) -> "DropperSpec":
        return cls("count", tuple(int(g) for g in gaps))

    @classmethod
    def phase(cls, phases: Sequence[tuple[float, int]]) -> "DropperSpec":
        return cls("phase", tuple((float(d), int(n)) for d, n in phases))

    def build(self, sim):
        """Instantiate the live dropper against a simulator clock."""
        from repro.net.droppers import (
            BernoulliDropper,
            CountBasedDropper,
            PeriodicDropper,
            PhaseDropper,
        )

        clock = lambda: sim.now  # noqa: E731 - tiny closure over the sim
        if self.kind == "count":
            return CountBasedDropper(list(self.args), clock=clock)
        if self.kind == "phase":
            return PhaseDropper([tuple(p) for p in self.args], clock=clock)
        if self.kind == "periodic":
            return PeriodicDropper(int(self.args[0]), clock=clock)
        if self.kind == "bernoulli":
            import random

            p, seed = self.args
            return BernoulliDropper(float(p), rng=random.Random(int(seed)), clock=clock)
        raise KeyError(
            f"unknown dropper kind {self.kind!r}; "
            "available: count, phase, periodic, bernoulli"
        )

    def describe(self) -> dict:
        return {"__dropper__": self.kind, "args": canonical(self.args)}


# ---------------------------------------------------------------------------
# Canonical encoding and hashing
# ---------------------------------------------------------------------------


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-able form for content hashing.

    Handles the vocabulary jobs are built from: primitives, lists/tuples,
    dicts with string keys, :class:`Protocol`, :class:`DropperSpec`
    and frozen config dataclasses (encoded with their class name so two
    different config types never collide).
    """
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, (Protocol, DropperSpec)):
        return obj.describe()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        desc: dict[str, Any] = {"__config__": type(obj).__qualname__}
        for fld in dataclasses.fields(obj):
            desc[fld.name] = canonical(getattr(obj, fld.name))
        return desc
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for job hashing; "
        "jobs must be built from primitives, dataclass configs, "
        "Protocol and DropperSpec values"
    )


def content_hash(description: Any) -> str:
    """Stable SHA-256 over a canonical JSON encoding of ``description``."""
    text = json.dumps(
        canonical(description), sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Job
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One simulation (or analysis) point, described declaratively.

    ``scenario`` names an entry in :data:`SCENARIOS`; ``config`` is the
    scenario's frozen config dataclass; ``protocol`` the protocol under
    test; ``params`` extra computational inputs (square-wave period,
    dropper spec, ...).  ``tags`` carry display-only keys for ``reduce``
    (family labels, sweep coordinates already implied by the protocol) and
    are **excluded** from the content hash, as are ``figure`` and
    ``index`` — so Figures 4 and 5, which share a sweep, share cache
    entries too.
    """

    figure: str  # simlint: disable=H001(figure routes results to reduce() but is deliberately outside the hash so fig04/fig05 share cache entries)
    scenario: str
    config: Any = None
    protocol: Optional[Protocol] = None
    params: tuple[tuple[str, Any], ...] = ()
    seed: Optional[int] = None
    scale: str = "fast"
    tags: tuple[tuple[str, Any], ...] = dataclasses.field(default=(), compare=False)
    index: int = dataclasses.field(default=0, compare=False)
    # Record a telemetry trace while executing.  Excluded from the content
    # hash (compare=False) so tracing never forks the result cache: a traced
    # and an untraced run of the same point share one cache entry.
    trace: bool = dataclasses.field(default=False, compare=False)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def tag(self, name: str, default: Any = None) -> Any:
        for key, value in self.tags:
            if key == name:
                return value
        return default

    def describe(self) -> dict:
        """The hashed identity of this job (figure/tags/index excluded)."""
        return {
            "scenario": self.scenario,
            "config": canonical(self.config),
            "protocol": canonical(self.protocol),
            "params": canonical(dict(self.params)),
            "seed": self.seed,
            "scale": self.scale,
        }

    @functools.cached_property
    def content_hash(self) -> str:
        """Stable across processes and platforms for identical work.

        Computed once per ``Job`` object (the cache key, dedup, the run
        log and fault matching all ask): the instance is frozen, so the
        memo cannot go stale; ``dataclasses.replace`` builds a new object
        and hashes again, and a pickled job carries its hash along.
        """
        return content_hash(self.describe())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = self.protocol.family if self.protocol else None
        return (
            f"<Job {self.figure}#{self.index} scenario={self.scenario} "
            f"protocol={proto} seed={self.seed} scale={self.scale}>"
        )


def job(
    figure: str,
    scenario_name: str,
    *,
    config: Any = None,
    protocol: Optional[Protocol] = None,
    seed: Optional[int] = None,
    scale: str = "fast",
    params: Optional[dict[str, Any]] = None,
    tags: Optional[dict[str, Any]] = None,
) -> Job:
    """Build a :class:`Job` from plain dicts of params and tags."""
    return Job(
        figure=figure,
        scenario=scenario_name,
        config=config,
        protocol=protocol,
        params=tuple(sorted((params or {}).items())),
        seed=seed,
        scale=scale,
        tags=tuple(sorted((tags or {}).items())),
    )


def indexed(jobs: Iterable[Job]) -> list[Job]:
    """Assign sequential indices; executors restore this order."""
    return [replace(j, index=i) for i, j in enumerate(jobs)]


# ---------------------------------------------------------------------------
# Scenario registry and execution
# ---------------------------------------------------------------------------

SCENARIOS: dict[str, Callable[[Job], Any]] = {}


def scenario(name: str) -> Callable:
    """Register a scenario runner under ``name`` (decorator)."""

    def register(fn: Callable[[Job], Any]) -> Callable[[Job], Any]:
        SCENARIOS[name] = fn
        return fn

    return register


def execute_job(jb: Job, fault: Optional[Callable[[Job], None]] = None) -> Any:
    """Run one job and return its JSON-native payload.

    This is the function worker processes execute; it is importable at
    module top level so jobs can be dispatched through a process pool.

    ``fault`` is an optional deterministic fault-injection hook (see
    :mod:`repro.experiments.faults`): it is called with the job before
    the scenario runs and may raise, stall or kill the process, letting
    tests prove the executor's retry/timeout/degradation paths produce
    byte-identical results to a clean run.  Executors only pass a fault
    to pool workers, never to in-process execution.
    """
    if fault is not None:
        fault(jb)
    try:
        fn = SCENARIOS[jb.scenario]
    except KeyError:
        raise KeyError(
            f"unknown scenario {jb.scenario!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    if not jb.trace:
        return fn(jb)
    from repro.telemetry import Recorder, capture

    recorder = Recorder()
    recorder.annotate("job", jb.describe())
    recorder.annotate("scenario", jb.scenario)
    with capture(recorder):
        value = fn(jb)
    return {"__trace__": recorder.export_text(), "value": value}


def _series(timeseries) -> list[list[float]]:
    return [[t, v] for t, v in timeseries]


def cbr_restart_payload(result) -> dict:
    """JSON payload for one cbr_restart point (shared with trace replay)."""
    return {
        "protocol": result.protocol,
        "steady_loss_rate": result.steady_loss_rate,
        "spike_loss_rate": result.spike_loss_rate,
        "time_rtts": result.stabilization.time_rtts,
        "time_s": result.stabilization.time_s,
        "cost": result.stabilization.cost,
        "stabilized": result.stabilization.stabilized,
        "series": _series(result.loss_series),
    }


def oscillation_payload(result) -> dict:
    """JSON payload for one oscillation point (shared with trace replay)."""
    return {
        "protocol_a": result.protocol_a,
        "protocol_b": result.protocol_b,
        "period_s": result.period_s,
        "mean_a": result.mean_a,
        "mean_b": result.mean_b,
        "shares_a": list(result.shares_a),
        "shares_b": list(result.shares_b),
        "utilization": result.utilization,
        "drop_rate": result.drop_rate,
    }


@scenario("cbr_restart")
def _cbr_restart(jb: Job) -> dict:
    """Figures 3-5: stabilization after a CBR restart (RED unless ``aqm``)."""
    from repro.experiments.scenarios import run_cbr_restart

    result = run_cbr_restart(jb.protocol, jb.config, jb.param("aqm", "red"))
    return cbr_restart_payload(result)


@scenario("flash_crowd")
def _flash_crowd(jb: Job) -> dict:
    """Figure 6: a web flash crowd against SlowCC background traffic."""
    from repro.experiments.scenarios import run_flash_crowd

    result = run_flash_crowd(jb.protocol, jb.config)
    return {
        "protocol": result.protocol,
        "background": _series(result.background_series),
        "crowd": _series(result.crowd_series),
        "crowd_completed": result.crowd_completed,
        "crowd_spawned": result.crowd_spawned,
        "crowd_share_during": result.crowd_share_during,
    }


@scenario("oscillation")
def _oscillation(jb: Job) -> dict:
    """Figures 7-9 and 14-16: square-wave available bandwidth."""
    from repro.experiments.scenarios import run_oscillation

    result = run_oscillation(
        jb.protocol, jb.param("protocol_b"), jb.param("period_s"), jb.config
    )
    return oscillation_payload(result)


@scenario("convergence")
def _convergence(jb: Job) -> float:
    """Figures 10 and 12: one seed of the two-flow convergence scenario.

    The job's config carries exactly one seed (the figure's ``jobs()``
    fans the config's seed tuple out into one job per seed), so the
    payload is that seed's δ-fair convergence time in seconds.
    """
    from repro.experiments.scenarios import run_convergence

    return run_convergence(jb.protocol, jb.config)


@scenario("doubling")
def _doubling(jb: Job) -> dict:
    """Figure 13: f(k) utilization after the available bandwidth doubles."""
    from repro.experiments.scenarios import run_doubling

    result = run_doubling(jb.protocol, jb.config)
    return {
        "protocol": result.protocol,
        "f_of_k": [[k, result.f_of_k[k]] for k in jb.config.ks],
    }


@scenario("loss_pattern")
def _loss_pattern(jb: Job) -> dict:
    """Figures 17-19: a single flow under a crafted loss pattern."""
    from repro.experiments.scenarios import run_loss_pattern

    dropper: DropperSpec = jb.param("dropper")
    result = run_loss_pattern(jb.protocol, dropper.build, jb.config)
    return {
        "protocol": result.protocol,
        "throughput_bps": result.throughput_bps,
        "smoothness_cov": result.smoothness.cov,
        "worst_ratio": result.smoothness.min_ratio,
        "rate_band": result.rate_band,
        "drops": result.drops,
    }


@scenario("analysis_acks")
def _analysis_acks(jb: Job) -> float:
    """Figure 11: closed-form E[#ACKs] to delta-fair convergence."""
    from repro.analysis.convergence import acks_to_fairness

    return acks_to_fairness(jb.param("b"), jb.param("p"), jb.param("delta"))


@scenario("timeout_models")
def _timeout_models(jb: Job) -> list[float]:
    """Figure 20: the three Appendix A response models at one drop rate."""
    from repro.analysis.timeouts import figure20_series

    row = figure20_series([jb.param("p")])[0]
    return [row.pure_aimd, row.aimd_with_timeouts, row.reno]


@scenario("responsiveness")
def _responsiveness(jb: Job) -> Optional[float]:
    """Extension: RTTs of persistent congestion until the rate halves."""
    from repro.experiments.ext_responsiveness import measure_responsiveness_rtts

    return measure_responsiveness_rtts(jb.protocol, observe_rtts=jb.param("observe_rtts"))


@scenario("queue_dynamics")
def _queue_dynamics(jb: Job) -> dict:
    """Extension: queue occupancy and oscillation for one population."""
    from repro.experiments.ext_queue_dynamics import measure_queue_dynamics

    mean_q, cov, loss = measure_queue_dynamics(jb.protocol, jb.param("aqm"), jb.config)
    return {
        "protocol": jb.protocol.name,
        "mean_queue_pkts": mean_q,
        "queue_cov": cov,
        "loss_rate": loss,
    }


@scenario("aggressiveness")
def _aggressiveness(jb: Job) -> float:
    """Extension: largest per-RTT control increase once congestion ends."""
    from repro.experiments.ext_responsiveness import (
        measure_aggressiveness_pkts_per_rtt,
    )

    return measure_aggressiveness_pkts_per_rtt(jb.protocol, **dict(jb.params))


@scenario("acks_to_fairness")
def _acks_to_fairness(jb: Job) -> list[float]:
    """Figure 11 validation: simulated (ACKs to δ-fairness, mark rate)."""
    from repro.experiments.ext_fig11_simulated_validation import (
        measure_acks_to_fairness,
    )

    return list(measure_acks_to_fairness(jb.protocol, jb.config))
