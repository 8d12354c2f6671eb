"""A job frees its simulation before the next job allocates.

A simulated network is cyclic by construction (calendar and bound
callbacks, node and link, sender and timer), so when a scenario returns,
its whole graph is garbage only a collection can reclaim.
``execute_job`` collects once after a scenario that ran the kernel,
traced or not: a recorder holds its probes' samples, never the network,
so a traced job's network is dead before its trace is exported.  Every
road a job takes
is checked here: in-process, traced, an ``Executor(0)`` map, the
coordinator's tail of a two-worker map, and a worker's second job.

The ``build`` scenario keeps a weak reference to its ``Simulator``; the
``probe`` scenario, the next job in the same process, reports whether
that simulator is dead.  A weakref, not ``gc.get_objects()``, which
skips the frozen heap a worker inherits.  The automatic collector is
off while each test runs, so only the collections a job makes count.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import weakref
from dataclasses import replace

import pytest

from repro.cc import new_tcp_flow
from repro.experiments import ALL_FIGURES
from repro.experiments.executor import make_executor
from repro.experiments.jobs import SCENARIOS, execute_job, job, run_job
from repro.sim import Simulator
from repro.telemetry import Recorder, SeriesProbe, active_recorder
from tests.helpers import loopback

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="a worker finds the test's scenarios only in a fork of this process",
)

#: ``(pid, weakref to the Simulator)`` of the last ``build`` in this process.
LAST_BUILT: list = [None]


def build(jb) -> dict:
    """A TCP flow over a loopback path, stopped with its timers armed."""
    sim = Simulator()
    sender, sink = new_tcp_flow(sim)
    loopback(sim, sender, sink)
    clock = SeriesProbe("clock")
    recorder = active_recorder()
    if recorder is not None:  # a recorded channel, as a link monitor's queue
        recorder.adopt("lifetime.clock", clock)
    sender.start()
    sim.run(until=0.3)
    clock.record(sim.now, sim.now)
    LAST_BUILT[0] = (os.getpid(), weakref.ref(sim))
    return {"pid": os.getpid()}


def probe(jb) -> dict:
    """Whether the last simulator this process built is dead."""
    built = LAST_BUILT[0]
    return {
        "pid": os.getpid(),
        "dead": built is not None and built[0] == os.getpid() and built[1]() is None,
        "frozen": gc.get_freeze_count(),
    }


def idle(jb) -> dict:
    return {"pid": os.getpid()}


def job_of(name: str, n: int = 0, trace: bool = False):
    """A ``lifetimes_<name>`` job; ``n`` is an unread param that keeps
    otherwise equal jobs apart."""
    return replace(job("lifetimes", f"lifetimes_{name}", params={"n": n}), trace=trace)


@pytest.fixture(autouse=True)
def scenarios(monkeypatch):
    """The three scenarios, registered before any worker forks, and no
    automatic collection while the test runs."""
    for fn in (build, probe, idle):
        monkeypatch.setitem(SCENARIOS, f"lifetimes_{fn.__name__}", fn)
    LAST_BUILT[0] = None
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_execute_job_frees_its_simulation():
    execute_job(job_of("build"))
    assert execute_job(job_of("probe"))["dead"]


def test_a_traced_job_frees_its_simulation_once_its_trace_is_exported(monkeypatch):
    dead_at_export = []
    export_text = Recorder.export_text

    def export_after_looking(recorder):
        dead_at_export.append(LAST_BUILT[0][1]() is None)
        return export_text(recorder)

    monkeypatch.setattr(Recorder, "export_text", export_after_looking)
    _, trace_text = run_job(job_of("build", trace=True))
    assert "lifetime.clock" in trace_text  # the recorder held a channel
    assert dead_at_export == [True]  # ... and not the network
    value_text, _ = run_job(job_of("probe"))
    assert '"dead": true' in value_text


def test_a_serial_map_frees_each_simulation():
    with make_executor(0) as executor:
        results = executor.map([job_of("build"), job_of("probe")])
    assert results[1].value["dead"]


@needs_fork
def test_the_coordinators_tail_frees_its_simulation():
    with make_executor(2) as executor:
        results = executor.map([job_of("idle", 1), job_of("idle", 2), job_of("build")])
        assert results[2].value["pid"] == os.getpid()  # the tail ran here
        (after,) = executor.map([job_of("probe")])  # a one-job map runs here too
    assert after.value["pid"] == os.getpid() and after.value["dead"]


@needs_fork
def test_a_workers_second_job_finds_its_first_freed_and_the_inherited_heap_frozen():
    with make_executor(2) as executor:
        built = executor.map([job_of("build", 1), job_of("build", 2), job_of("idle")])
        probed = executor.map([job_of("probe", 1), job_of("probe", 2), job_of("idle")])
    workers = {result.value["pid"] for result in built[:2]}
    assert os.getpid() not in workers and len(workers) == 2
    for result in probed[:2]:
        assert result.value["pid"] in workers
        assert result.value["dead"]
        assert result.value["frozen"] > 0


def collections_during(fn) -> int:
    """How many collections ``fn()`` starts (the automatic collector is off)."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        fn()
    finally:
        gc.callbacks.remove(count)
    return len(starts)


def test_closed_form_jobs_make_no_collection():
    jobs = ALL_FIGURES["fig20"].jobs("fast") + ALL_FIGURES["fig11"].jobs("fast")
    with make_executor(0) as executor:
        assert collections_during(lambda: executor.map(jobs)) == 0


def test_one_collection_per_simulated_job_traced_or_not():
    jobs = [job_of("build", n) for n in (1, 2, 3)]
    with make_executor(0) as executor:
        assert collections_during(lambda: executor.map(jobs)) == 3
    assert collections_during(lambda: run_job(job_of("build", 4, trace=True))) == 1
