"""The traced pass: pipeline spans and the per-layer fold.

Everything here runs only with ``--trace 1``; the end-to-end metrics are
always measured without it.  Two levels of detail, both recorded from
the benchmark's own files:

1. **Spans** (:class:`Tracer`, :class:`TimedCache`): one record per call
   the harness makes into the pipeline — ``executor.map``,
   ``execute_job``, ``module.reduce``, ``Table.format``, ``replay_job``,
   ``TraceReader.loads`` — and per cache operation, through a
   ``ResultCache`` subclass handed to ``map``.  A span names the span
   that caused it, so a layer's self time is its duration minus the part
   its children cover.
2. **Fold** (:func:`profile_jobs`): inside a job a span per packet would
   be millions of records, so a ``cProfile`` run is folded instead — each
   function's self time and call count go to the ``src/repro`` package
   that defines it, each builtin or standard-library function to the
   layer of whoever called it.  Call counts are exact and repeat; traced
   seconds are inflated by the profiler (``trace.overhead_ratio``), so
   read the fold as *shares* and *counts*.
"""

from __future__ import annotations

import cProfile
import json
import os
import pathlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Sequence

from repro.experiments import ResultCache, execute_job
from repro.experiments.jobs import Job

from probes import SimCensus

__all__ = ["Fold", "LAYERS", "TimedCache", "Tracer", "profile_jobs"]

#: Simulator packages of ``src/repro`` the fold reports, in pipeline order.
#: ``experiments`` is the scenario/job glue that wires them together and
#: ``other`` is what belongs to none (``repro.units``, the harness itself,
#: profiler entry points).
LAYERS = (
    "sim",
    "net",
    "cc",
    "traffic",
    "telemetry",
    "metrics",
    "analysis",
    "experiments",
    "other",
)


# ---------------------------------------------------------------------------
# Level 1: spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; written out once, when the pass ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str, job: Optional[str] = None) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "job": job,
            "layer": layer,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def total_s(self, layer: str, name: Optional[str] = None) -> float:
        """Summed duration of the spans of ``layer`` (optionally one name)."""
        return sum(
            span["end_ns"] - span["start_ns"]
            for span in self.spans
            if span["layer"] == layer and (name is None or span["name"] == name)
        ) / 1e9

    def self_s(self, layer: str) -> float:
        """Duration of ``layer``'s spans minus what their direct children cover."""
        covered: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end_ns"] - span["start_ns"]
        return sum(
            span["end_ns"] - span["start_ns"] - covered[span["id"]]
            for span in self.spans
            if span["layer"] == layer
        ) / 1e9

    def append_to(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


CACHE_LAYER = "experiments.cache"


class TimedCache(ResultCache):
    """A ``ResultCache`` whose pipeline-facing operations record spans."""

    def __init__(self, root: pathlib.Path, tracer: Tracer):
        super().__init__(root)
        self._tracer = tracer


def _timed(name: str):
    plain = getattr(ResultCache, name)

    def method(self, *args, **kwargs):
        with self._tracer.span(CACHE_LAYER, name):
            return plain(self, *args, **kwargs)

    method.__name__ = name
    return method


for _name in ("lookup", "store", "store_text", "flush_batch", "store_trace", "load_trace"):
    setattr(TimedCache, _name, _timed(_name))


# ---------------------------------------------------------------------------
# Level 2: the cProfile fold
# ---------------------------------------------------------------------------


def _qualname(code: Any) -> str:
    return getattr(code, "co_qualname", code.co_name)


#: Public boundaries whose exact call counts the ledger reports, as
#: (layer, class-qualified function name).  Qualified names need Python
#: >= 3.11 (``co_qualname``); on 3.10 the bare names still match most.
BOUNDARIES = {
    "sim.events_scheduled": (
        "sim",
        {"Simulator.schedule", "Simulator.at", "Simulator.call_in", "Simulator.call_at"},
    ),
    "sim.events_cancelled": ("sim", {"Event.cancel"}),
    "net.link_sends": ("net", {"Link.send"}),
    "net.enqueues": ("net", {"QueueDiscipline.enqueue"}),
    "telemetry.probe_writes": (
        "telemetry",
        {"CounterProbe.increment", "SeriesProbe.record"},
    ),
}


@dataclass
class Fold:
    """One profiled pass over a list of jobs, folded by layer."""

    untraced_wall_s: float
    traced_wall_s: float
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    boundary_calls: dict[str, int] = field(default_factory=dict)
    total_calls: int = 0
    export_s: float = 0.0  # inclusive time of Recorder.export_text
    sim_counts: dict[str, int] = field(default_factory=dict)

    @property
    def attributed_share(self) -> float:
        return sum(self.self_s.values()) / self.traced_wall_s


def _layer_of(code: Any, repro_dir: str, bench_dir: str) -> Optional[str]:
    """The layer that *defines* ``code``; None for builtins and anything
    outside the repository, which are charged to their caller instead."""
    if isinstance(code, str):
        return None
    path = code.co_filename
    if path.startswith(repro_dir):
        head = path[len(repro_dir) :].lstrip(os.sep).split(os.sep)[0]
        return head if head in LAYERS else "other"
    if path.startswith(bench_dir):
        return "other"
    return None


def profile_jobs(jobs: Sequence[Job]) -> Fold:
    """Run ``jobs`` once plain and once under ``cProfile``; fold the second.

    The plain pass comes first on purpose: it pays every lazy import, so
    the profiled pass measures simulation rather than the import system,
    and its wall time is the denominator of ``trace.overhead_ratio``.
    """
    import repro

    repro_dir = str(pathlib.Path(repro.__file__).resolve().parent)
    bench_dir = str(pathlib.Path(__file__).resolve().parent)

    started = time.perf_counter()
    for jb in jobs:
        execute_job(jb)
    untraced_wall_s = time.perf_counter() - started

    profiler = cProfile.Profile()
    with SimCensus() as census:
        started = time.perf_counter()
        profiler.enable()
        for jb in jobs:
            execute_job(jb)
        profiler.disable()
        traced_wall_s = time.perf_counter() - started
    fold = Fold(untraced_wall_s, traced_wall_s, sim_counts=census.counts())
    _fold_stats(profiler.getstats(), fold, repro_dir, bench_dir)
    return fold


def _fold_stats(stats: list, fold: Fold, repro_dir: str, bench_dir: str) -> None:
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    boundary = {name: 0 for name in BOUNDARIES}
    receives = timeouts = 0
    # For each function defined outside the repository: its self time,
    # split by direct caller (cProfile records exactly that split).
    foreign_from: dict[Any, dict[Any, float]] = defaultdict(lambda: defaultdict(float))
    layers = {entry.code: _layer_of(entry.code, repro_dir, bench_dir) for entry in stats}

    for entry in stats:
        layer = layers[entry.code]
        fold.total_calls += entry.callcount
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            name = _qualname(entry.code)
            for metric, (where, names) in BOUNDARIES.items():
                if layer == where and name in names:
                    boundary[metric] += entry.callcount
            if layer == "cc":
                bare = name.rpartition(".")[2]
                if bare == "receive":
                    receives += entry.callcount
                elif bare in ("_on_timeout", "_no_feedback_expired"):
                    timeouts += entry.callcount
            if name == "Recorder.export_text":
                fold.export_s += entry.totaltime
        for sub in entry.calls or ():
            if layers[sub.code] is None:
                foreign_from[sub.code][entry.code] += sub.inlinetime

    # Charge foreign self time to the layer of the nearest repository
    # caller, walking up through foreign callers (json.dumps -> encoder ->
    # C encoder) in proportion to where *their* time was charged.
    resolved: dict[Any, dict[str, float]] = {}

    def shares(code: Any, walking: frozenset) -> dict[str, float]:
        if code in resolved:
            return resolved[code]
        out: dict[str, float] = defaultdict(float)
        for caller, seconds in foreign_from.get(code, {}).items():
            caller_layer = layers.get(caller)
            if caller_layer is not None:
                out[caller_layer] += seconds
            elif caller not in walking:
                up = shares(caller, walking | {code})
                total = sum(up.values())
                for layer, weight in up.items():
                    out[layer] += seconds * weight / total if total else 0.0
        if not walking:
            resolved[code] = out
        return out

    for entry in stats:
        if layers[entry.code] is None:
            charged = shares(entry.code, frozenset())
            for layer, seconds in charged.items():
                self_s[layer] += seconds
            # Called from no recorded caller (the profiler's own entry
            # points) or only through a foreign cycle: nobody's layer.
            self_s["other"] += max(0.0, entry.inlinetime - sum(charged.values()))

    fold.self_s = {layer: self_s.get(layer, 0.0) for layer in LAYERS}
    fold.calls = {layer: calls.get(layer, 0) for layer in LAYERS}
    fold.boundary_calls = dict(boundary, **{"cc.receives": receives, "cc.timeouts": timeouts})
