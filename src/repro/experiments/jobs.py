"""Declarative experiment jobs: the unit of work behind every figure.

The experiment layer is split into three stages:

1. **Define** — each figure module exposes ``jobs(scale) -> list[Job]``.
   A :class:`Job` is a pure, picklable description of one simulation
   point: ``(scenario, scenario_config, protocol, params, seed,
   scale)``.  Jobs carry a stable content hash so identical work is
   recognized across figures, runs and processes.
2. **Execute** — an executor from :mod:`repro.experiments.executor` maps
   :func:`run_job` over the jobs (serially or across a process pool)
   and returns results in job order, optionally consulting the
   content-addressed cache in :mod:`repro.experiments.cache`.
3. **Reduce** — each figure module exposes ``reduce(results) -> Table``
   which folds the per-job payloads into the figure's table.  Reduction
   is pure formatting: it never runs simulations.

A scenario is ``fn(jb: Job) -> payload``, registered with
``@scenario("name")`` in the module that writes it (the simulated
families in :mod:`repro.experiments.scenarios`, the closed forms and
extensions beside the functions they call); this module holds only the
registry and imports no scenario or figure module, so nothing here is
part of an import cycle.

Job payloads are restricted to JSON-native values (dicts with string
keys, lists, strings, floats, ints, bools, None) and are canonical JSON
text from the moment :func:`run_job` returns, so a result read back from
the cache is byte-identical to one computed in process, and parallel
execution cannot perturb output formatting.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.experiments.protocols import Protocol
from repro.telemetry import capture

__all__ = [
    "DropperSpec",
    "Job",
    "SCENARIOS",
    "canonical",
    "content_hash",
    "execute_job",
    "indexed",
    "job",
    "run_job",
    "scenario",
]

#: Bump when the meaning of job payloads changes; combined with the
#: library version it salts the on-disk result cache (see
#: :mod:`repro.experiments.cache`), so stale records are never reused.
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
    """Register a scenario runner under ``name`` (decorator).

    Registrations are spread over the modules that write the scenarios,
    so a second function claiming a taken name is an import-time error
    naming both — otherwise the later import would silently win, in the
    parent and in every worker.  The same definition registering again (a
    reloaded module) replaces itself.
    """

    def register(fn: Callable[[Job], Any]) -> Callable[[Job], Any]:
        taken = SCENARIOS.get(name, fn)
        if (taken.__module__, taken.__qualname__) != (fn.__module__, fn.__qualname__):
            raise ValueError(
                f"scenario {name!r} is already registered by "
                f"{taken.__module__}.{taken.__qualname__}; "
                f"{fn.__module__}.{fn.__qualname__} cannot register it too"
            )
        SCENARIOS[name] = fn
        return fn

    return register


def execute_job(jb: Job, fault: Optional[Callable[[Job], None]] = None) -> Any:
    """Run one job and return its JSON-native payload.

    ``jb.trace`` is not read here: recording is :func:`run_job`'s concern.

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
    return fn(jb)


def run_job(
    jb: Job, fault: Optional[Callable[[Job], None]] = None
) -> tuple[str, Optional[str]]:
    """``(value_text, trace_text or None)``: what an executor calls.

    The one entry point for a pool worker *and* for in-process execution
    (importable at module top level, so a pool can dispatch it).  The
    payload is serialized once, to the canonical JSON text the cache
    record holds, so a result is the same text — and a ``reduce`` reads
    the same ``json.loads`` of it — whichever way it was computed.  A
    ``trace=True`` job runs under a recorder and its JSONL export travels
    *beside* the payload; ``trace_text`` is None when no trace was asked
    for, so "no trace" and "empty trace" stay distinct.
    """
    trace_text = None
    if jb.trace:
        with capture() as recorder:
            recorder.annotate("job", jb.describe())
            recorder.annotate("scenario", jb.scenario)
            value = execute_job(jb, fault)
        trace_text = recorder.export_text()
    else:
        value = execute_job(jb, fault)
    return json.dumps(value, allow_nan=True, sort_keys=True), trace_text
