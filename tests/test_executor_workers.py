"""What the worker plumbing promises: a worker is a fork and a pipe.

``tests/test_executor_faults.py`` pins what recovery *does* (retry,
respawn, degrade, salvage); this file pins what the plumbing under it
leaves behind and says — no thread in the coordinator, no live or
unreaped child after ``close()``, no worker after a dead coordinator, the
lost worker's exit status in the run log, an exception that does not
pickle still an ordinary retry — that the ``spawn`` arm is live code, and
that the recovery arms no fault spec can reach still recover.

Whatever counts children or threads runs in a subprocess of its own, so
pytest's other children (and executors earlier tests left to the garbage
collector) cannot interfere.  Nothing here asserts a duration: deadlines
only bound how long a failing run may take.
"""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import pathlib
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.experiments.executor as executor_module
from repro.experiments import DropperSpec, LossPatternConfig, job, tcp
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import MISS, ResultCache
from repro.experiments.executor import ExecutionError, Executor
from repro.experiments.faults import CRASH_EXIT_STATUS, FaultSpec, InjectedFault
from repro.experiments.jobs import indexed
from tests.helpers import faulty_executor
from tests.test_scheduler_determinism import POOL_FORCING_TIMEOUT_S, _fingerprint

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="a forked worker inherits the patch / the pipe; spawn does not",
)

#: One fig20 map on two workers in a fresh interpreter; ``argv[1]`` holds
#: the executor's keyword arguments, plus ``fault`` (the fault spec it
#: reads from ``REPRO_FAULT_SPEC``) and ``backoff`` (its backoff base,
#: 10 ms unless given); its last line of output is one JSON object.
DRIVER = """
import json, multiprocessing, os, sys, threading
from repro.experiments import DropperSpec, LossPatternConfig, job, tcp
from repro.experiments import executor as executor_module
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.executor import Executor

threads = threading.active_count()
kwargs = json.loads(sys.argv[1])
executor_module.BACKOFF_S = kwargs.pop("backoff", 0.01)
if "fault" in kwargs:
    os.environ["REPRO_FAULT_SPEC"] = kwargs.pop("fault")
executor = Executor(2, **kwargs)
table = fig20.reduce(executor.map(fig20.jobs("fast"))).format()
out = {
    "table": table,
    "report": executor.last_report.as_dict(),
    "threads_started": threading.active_count() - threads,
    "workers": len(multiprocessing.active_children()),
}
executor.close()
out["children_after_close"] = len(multiprocessing.active_children())
try:
    os.waitpid(-1, os.WNOHANG)
    out["unreaped"] = True
except ChildProcessError:
    out["unreaped"] = False
print(json.dumps(out))
"""


def start_driver(pass_fds=(), **kwargs) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ("REPRO_FAULT_SPEC", "REPRO_RUN_LOG"):
        env.pop(name, None)
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER, json.dumps(kwargs)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        pass_fds=pass_fds,
        start_new_session=True,  # so stop_driver can reach its workers too
    )


def finish_driver(process: subprocess.Popen) -> dict:
    stdout, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    return json.loads(stdout.splitlines()[-1])


def stop_driver(process: subprocess.Popen) -> None:
    """Whatever a failed assertion left of the driver's process group."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.stdout.close()
    process.wait()


def job_records(log: pathlib.Path) -> list[dict]:
    """The ``job`` records of a log that may not exist yet, or may be
    read while its last line is still being written."""
    if not log.exists():
        return []
    complete_lines = log.read_text().split("\n")[:-1]
    records = [json.loads(line) for line in complete_lines]
    return [r for r in records if r["event"] == "job"]


def wait_for_records(log: pathlib.Path, count: int, process: subprocess.Popen):
    """Block until ``log`` holds ``count`` job records (the driver is then
    provably inside its map); a driver that ends first is a failure."""
    deadline = time.monotonic() + 60.0
    while len(job_records(log)) < count:
        assert process.poll() is None, "the driver ended before it was disturbed"
        assert time.monotonic() < deadline, "the driver never got that far"
        time.sleep(0.01)
    return job_records(log)


def loss_pattern_jobs(count: int, *, duration_s: float = 5.0, last=None):
    """``count`` short simulations as ``dispatch_smalljobs`` builds them
    (a 5-s one is ~15 ms: predicted too dear to inline), then one with
    the dropper ``last`` when it is given."""
    config = LossPatternConfig(duration_s=duration_s, warmup_s=1.0)
    kinds = [DropperSpec("periodic", (60 + i,)) for i in range(count)]
    kinds += [last] if last is not None else []
    return indexed(
        job("tail", "loss_pattern", config=config, protocol=tcp(), params={"dropper": d})
        for d in kinds
    )


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    """Retries and respawns wait 10 ms, not the product's 50 ms base."""
    monkeypatch.setattr(executor_module, "BACKOFF_S", 0.01)


@pytest.fixture(scope="module")
def serial_table():
    return fig20.reduce(Executor().map(JOBS())).format()


class TestNothingLeftRunning:
    @pytest.mark.parametrize(
        "kwargs, rebuilds",
        [
            ({"job_timeout": POOL_FORCING_TIMEOUT_S}, 0),
            ({"fault": "crash:index=0"}, 1),
            ({"fault": "hang=30:index=1", "job_timeout": 0.5}, 1),
        ],
        ids=["clean", "crash", "timeout"],
    )
    def test_no_thread_during_a_map_and_no_child_after_close(
        self, kwargs, rebuilds, serial_table
    ):
        out = finish_driver(start_driver(**kwargs))
        assert out["table"] == serial_table
        assert out["report"]["inlined"] == 0
        assert out["report"]["pool_rebuilds"] == rebuilds
        assert out["workers"] == 2  # the slots outlive the map...
        assert out["threads_started"] == 0  # ...and cost the coordinator no thread
        assert out["children_after_close"] == 0
        assert not out["unreaped"]  # every kill was followed by a join

    @needs_fork
    def test_a_killed_coordinator_leaves_no_worker(self, tmp_path):
        # Job 5 fails once and the coordinator sleeps a 30 s backoff inside
        # its map — that is when it is SIGKILLed.  Every worker inherited
        # the write end of ``alive``; its read end reaches EOF only when
        # the last of them has exited, which each does because it closed
        # the pipe ends it inherited and so sees EOF on its own.
        log = tmp_path / "run.jsonl"
        read_end, alive = os.pipe()
        process = start_driver(
            fault="error:index=5", backoff=30.0, run_log=str(log), pass_fds=[alive]
        )
        os.close(alive)
        try:
            wait_for_records(log, 1, process)
            process.send_signal(signal.SIGKILL)
            assert process.wait(timeout=60) == -signal.SIGKILL
            assert select.select([read_end], [], [], 2.0)[0], "a worker outlived it"
            assert os.read(read_end, 1) == b""
        finally:
            os.close(read_end)
            stop_driver(process)

    def test_an_import_pulls_in_no_pool_machinery(self):
        probe = (
            "import sys, repro.experiments\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing.forkserver')"
            " if m in sys.modules])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestALostWorkerIsNamed:
    def test_an_injected_crash_is_exit_70(self, tmp_path, serial_table):
        log = tmp_path / "run.jsonl"
        executor = faulty_executor("crash:index=0", 2, run_log=log)
        try:
            assert fig20.reduce(executor.map(JOBS())).format() == serial_table
        finally:
            executor.close()
        records = job_records(log)
        lost = [r for r in records if "worker_exit" in r]
        assert [(r["index"], r["worker_exit"]) for r in lost] == [
            (JOBS()[0].index, CRASH_EXIT_STATUS)
        ]
        assert lost[0]["status"] == "computed" and lost[0]["attempts"] == 2

    def test_a_timeout_kill_is_exit_minus_9_and_the_error_says_so(self, tmp_path):
        log = tmp_path / "run.jsonl"
        executor = faulty_executor(
            "hang=30:index=0:always", 2, job_timeout=0.3, max_retries=0, run_log=log
        )
        try:
            with pytest.raises(ExecutionError, match=r"lost a worker, exit -9"):
                executor.map(JOBS()[:2])
        finally:
            executor.close()
        failed = [r for r in job_records(log) if r["status"] == "failed"]
        assert [r["worker_exit"] for r in failed] == [-signal.SIGKILL]
        assert failed[0]["timed_out"]

    def test_a_worker_killed_from_outside_costs_one_retry(self, tmp_path, serial_table):
        # Job 5 hangs on its first attempt.  Both workers answer the jobs
        # before it, so the log names both pids; the one that goes on to
        # answer the jobs after it is not the one that hangs.
        log = tmp_path / "run.jsonl"
        process = start_driver(fault="hang=60:index=5", run_log=str(log))
        try:
            records = wait_for_records(log, len(JOBS()) - 1, process)
            pids = {r["worker_pid"] for r in records}
            working = {r["worker_pid"] for r in records if r["index"] > 5}
            assert len(pids) == 2 and len(working) == 1
            (hanging,) = pids - working
            os.kill(hanging, signal.SIGKILL)
            out = finish_driver(process)
        finally:
            stop_driver(process)
        assert out["table"] == serial_table
        assert out["report"]["retries"] == 1 and out["report"]["pool_rebuilds"] == 1
        assert not out["unreaped"]
        (retried,) = [r for r in job_records(log) if r["retried"]]
        assert retried["index"] == 5 and retried["worker_exit"] == -signal.SIGKILL


class TestWhatAWorkerSendsBack:
    @needs_fork
    def test_an_exception_that_does_not_pickle_is_an_ordinary_retry(
        self, monkeypatch
    ):
        def fire(self, jb):
            class Local(Exception):  # a local class cannot cross a pipe
                pass

            raise Local("not picklable")

        monkeypatch.setattr(FaultSpec, "fire", fire)  # inherited by the fork
        executor = faulty_executor("error:index=0:always", 2, max_retries=2)
        try:
            with pytest.raises(ExecutionError, match=r"Local\('not picklable'\)"):
                executor.map(JOBS())
        finally:
            executor.close()
        report = executor.last_report
        assert report.retries == 2 and report.failures == 1
        assert report.pool_rebuilds == 0 and not report.degraded

    def test_a_reply_left_by_an_interrupted_map_answers_nothing(
        self, tmp_path, serial_table
    ):
        class FullDisk(ResultCache):
            def store_text(self, jb, text):
                raise OSError("no space left on device")

        executor = Executor(2, job_timeout=POOL_FORCING_TIMEOUT_S)
        try:
            with pytest.raises(OSError, match="no space"):
                executor.map(JOBS(), FullDisk(tmp_path / "full"))
            # The other worker's reply was never read: it must not be
            # taken for the answer to the next map's first request.
            assert fig20.reduce(executor.map(JOBS())).format() == serial_table
        finally:
            executor.close()

    def test_only_the_coordinator_writes_the_cache_and_the_log(self, tmp_path):
        # A forked worker holds a copy of the coordinator's cache batch
        # and run-log handle; one that flushed either would duplicate a
        # record or change the tree.
        Executor().map(JOBS(), ResultCache(tmp_path / "serial"))
        log = tmp_path / "run.jsonl"
        executor = Executor(
            2, job_timeout=POOL_FORCING_TIMEOUT_S, run_log=log
        )
        try:
            executor.map(JOBS(), ResultCache(tmp_path / "parallel"))
        finally:
            executor.close()
        records = job_records(log)
        assert sorted(r["hash"] for r in records) == sorted(
            jb.content_hash for jb in JOBS()
        )
        assert all(r["status"] == "computed" for r in records)
        assert os.getpid() not in {r["worker_pid"] for r in records}
        assert _fingerprint(tmp_path / "parallel") == _fingerprint(tmp_path / "serial")


class TestTheSpawnArm:
    def test_crash_recovery_on_spawned_workers(self, monkeypatch, serial_table):
        # The arm a platform without fork takes, reached here by pointing
        # the one context chooser at it: same code, same recovery.
        monkeypatch.setattr(
            executor_module, "_context", lambda: multiprocessing.get_context("spawn")
        )
        executor = faulty_executor("crash:index=0", 2)
        try:
            assert fig20.reduce(executor.map(JOBS())).format() == serial_table
        finally:
            executor.close()
        report = executor.last_report
        assert report.retries == 1 and report.pool_rebuilds == 1
        assert not report.degraded


class TestArmsNoFaultSpecReaches:
    """Recovery arms a ``faults.py`` spec cannot reach, because a spec
    fires only inside a job: a worker that dies while idle, a host that
    refuses a process, and a terminal failure while another worker is
    still busy.  Each is reached here from outside the job, and each must
    leave the table (or the salvage) as a clean run would."""

    def test_a_worker_that_died_idle_is_replaced_before_its_job(self, serial_table):
        executor = Executor(2, job_timeout=POOL_FORCING_TIMEOUT_S)
        try:
            executor.map(JOBS())
            idle = executor._slots[0].proc
            os.kill(idle.pid, signal.SIGKILL)
            idle.join(10.0)
            assert idle.exitcode == -signal.SIGKILL
            table = fig20.reduce(executor.map(JOBS())).format()
        finally:
            executor.close()
        assert table == serial_table
        report = executor.last_report
        # The send to the dead worker failed, so its job never ran: it is
        # put back, not retried, and the worker is replaced.
        assert report.retries == 0 and report.pool_rebuilds == 1
        assert not report.degraded

    def test_a_host_that_refuses_a_process_degrades_to_serial(
        self, monkeypatch, serial_table
    ):
        def refuse(self):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        executor = Executor(2, job_timeout=POOL_FORCING_TIMEOUT_S)
        try:
            table = fig20.reduce(executor.map(JOBS())).format()
        finally:
            executor.close()
        assert table == serial_table
        report = executor.last_report
        assert report.degraded and report.salvaged == 0
        assert report.computed == len(JOBS())

    @needs_fork
    def test_a_terminal_failure_keeps_what_a_busy_worker_finishes(
        self, monkeypatch, tmp_path
    ):
        def bind(self, position, attempt):
            def fault(jb):
                if position == 0:
                    raise InjectedFault("job 0 fails for good")
                time.sleep(1.0)  # still running when job 0's failure is read

            return fault

        monkeypatch.setattr(FaultSpec, "bind", bind)  # inherited by the fork
        cache = ResultCache(tmp_path)
        executor = faulty_executor("error:*", 2, max_retries=0)
        try:
            with pytest.raises(ExecutionError, match="fails for good"):
                executor.map(JOBS()[:2], cache)
        finally:
            executor.close()
        assert executor.last_report.salvaged == 1
        assert cache.lookup(JOBS()[1]) is not MISS


class TestTheTail:
    """When every worker is busy and one job is left, the coordinator
    computes it instead of waiting — exactly where an inline job may run."""

    def test_the_coordinator_computes_the_last_of_workers_plus_one(self, tmp_path):
        log = tmp_path / "run.jsonl"
        with Executor(2, run_log=log) as executor:
            executor.map(loss_pattern_jobs(3))
        assert executor.last_report.inlined == 1
        pids = {r["index"]: r["worker_pid"] for r in job_records(log)}
        assert [pids[i] == os.getpid() for i in range(3)] == [False, False, True]

    @pytest.mark.parametrize(
        "spec, kwargs",
        [("error:index=99", {}), ("", {"job_timeout": POOL_FORCING_TIMEOUT_S})],
        ids=["fault-spec", "job-timeout"],
    )
    def test_isolation_keeps_the_last_job_on_a_worker(self, tmp_path, spec, kwargs):
        log = tmp_path / "run.jsonl"
        with faulty_executor(spec, 2, run_log=log, **kwargs) as executor:
            executor.map(loss_pattern_jobs(3))
        assert executor.last_report.inlined == 0
        pids = {r["worker_pid"] for r in job_records(log)}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_a_failing_last_job_raises_after_the_workers_results_are_cached(
        self, tmp_path
    ):
        # The last job's dropper is unknown: ``build`` raises KeyError on
        # every attempt, long before either worker's 30-s simulation ends.
        # Those two results must reach the cache before the error leaves.
        *good, bad = loss_pattern_jobs(
            2, duration_s=30.0, last=DropperSpec("no-such-kind")
        )
        cache = ResultCache(tmp_path)
        with Executor(2, max_retries=1) as executor:
            with pytest.raises(ExecutionError, match="no-such-kind") as excinfo:
                executor.map([*good, bad], cache)
        assert isinstance(excinfo.value.__cause__, KeyError)
        report = executor.last_report
        assert (report.inlined, report.failures, report.salvaged) == (1, 1, 2)
        assert all(cache.lookup(jb) is not MISS for jb in good)
