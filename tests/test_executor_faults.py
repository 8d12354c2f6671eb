"""Fault tolerance and run telemetry in the execution layer.

The executor's production contract: a crashed, failing or stuck worker
may cost wall-clock time, but never correctness and never completed
work.  These tests inject deterministic faults (worker crashes, raised
exceptions, stalls — see ``repro.experiments.faults``) and pin:

* a worker crash on a job's first attempt is retried on a rebuilt pool
  and the final tables are byte-identical to a clean serial run, with
  exactly one retry in the run log;
* an irrecoverably broken pool degrades to in-process execution,
  salvaging (not recomputing) everything that already finished, and a
  degraded job keeps the one retry budget it had in the pool;
* per-job timeouts kill the stuck worker, retry the job, and are
  reported;
* a job that exhausts its retry budget raises ``ExecutionError`` — but
  only after every completed result has reached the cache;
* the JSONL run log records one provenance event per job plus a summary
  per batch.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import sys

import pytest

from repro.experiments import fig11_convergence_analysis as fig11
from repro.experiments import fig20_timeout_models as fig20
from repro.experiments.cache import ResultCache
from repro.experiments.executor import (
    ExecutionError,
    Executor,
    make_executor,
)
from repro.experiments.faults import FaultSpec, InjectedFault
from repro.experiments.jobs import execute_job
from repro.experiments.runlog import RunLog

# Figure 20 is the cheapest real sweep (12 closed-form analysis jobs):
# heavy enough to exercise every scheduler path, light enough for CI.
JOBS = lambda: fig20.jobs("fast")  # noqa: E731 - tiny factory


@pytest.fixture(scope="module")
def serial_table():
    return fig20.reduce(Executor().map(JOBS())).format()


def read_log(path: pathlib.Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestFaultSpec:
    def test_parse_round_trip(self):
        spec = FaultSpec.parse("crash:index=3")
        assert spec.action == "crash" and spec.index == 3 and spec.when == "first"
        spec = FaultSpec.parse("error:hash=3fa2:always")
        assert spec.hash_prefix == "3fa2" and spec.when == "always"
        spec = FaultSpec.parse("hang=5:*:attempt=2")
        assert spec.action == "hang" and spec.seconds == 5.0
        assert spec.when == "attempt" and spec.attempt_n == 2
        assert FaultSpec.parse("") is None
        assert FaultSpec.parse(None) is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="action"):
            FaultSpec.parse("explode:index=0")
        with pytest.raises(ValueError, match="token"):
            FaultSpec.parse("crash:sometimes")

    def test_matching(self):
        jb = JOBS()[0]
        spec = FaultSpec.parse("error:index=0")
        assert spec.matches(jb, position=0, attempt=1)
        assert not spec.matches(jb, position=0, attempt=2)  # first only
        assert not spec.matches(jb, position=1, attempt=1)
        spec = FaultSpec.parse(f"error:hash={jb.content_hash[:8]}:always")
        assert spec.matches(jb, position=7, attempt=3)

    def test_error_fault_fires_through_execute_job(self):
        jb = JOBS()[0]
        fault = FaultSpec.parse("error:*").bind(position=0, attempt=1)
        with pytest.raises(InjectedFault):
            execute_job(jb, fault=fault)
        # Second attempt: the "first"-scoped fault stays quiet.
        fault = FaultSpec.parse("error:*").bind(position=0, attempt=2)
        assert execute_job(jb, fault=fault) is not None

    def test_executor_validates_spec_eagerly(self):
        with pytest.raises(ValueError):
            Executor(2, fault="explode:index=0")


class TestCrashRecovery:
    def test_crash_on_first_attempt_is_retried_byte_identically(
        self, tmp_path, serial_table
    ):
        """The acceptance path: one worker dies, nothing changes."""
        log = tmp_path / "run.jsonl"
        cache = ResultCache(tmp_path / "cache")
        executor = Executor(
            workers=3, fault="crash:index=0", run_log=log, backoff_s=0.01
        )
        table = fig20.reduce(executor.map(JOBS(), cache))
        assert table.format() == serial_table

        report = executor.last_report
        assert report.retries == 1
        assert report.pool_rebuilds == 1
        assert report.failures == 0 and not report.degraded
        # Only the crashed job re-ran: every unique job stored exactly once.
        assert cache.stats.stores == len(JOBS())

        records = read_log(log)
        retried = [r for r in records if r["event"] == "job" and r["retried"]]
        assert len(retried) == 1
        assert retried[0]["attempts"] == 2
        assert retried[0]["status"] == "computed"

    def test_crash_by_content_hash(self, serial_table):
        target = JOBS()[4].content_hash[:12]
        executor = Executor(
            workers=2, fault=f"crash:hash={target}", backoff_s=0.01
        )
        table = fig20.reduce(executor.map(JOBS()))
        assert table.format() == serial_table
        assert executor.last_report.retries == 1


class TestDegradation:
    def test_hard_broken_pool_degrades_to_serial(self, serial_table):
        """Every worker dies on every attempt: the run still succeeds."""
        executor = Executor(
            workers=2, fault="crash:*:always", backoff_s=0.01
        )
        table = fig20.reduce(executor.map(JOBS()))
        assert table.format() == serial_table
        report = executor.last_report
        assert report.degraded
        assert report.pool_rebuilds == 4  # the budget: workers + 2
        assert report.computed == len(JOBS())

    def test_degradation_salvages_completed_results(self, tmp_path, serial_table):
        """One persistently crashing job: the others' work is kept."""
        target = JOBS()[5].content_hash[:12]
        log = tmp_path / "run.jsonl"
        cache = ResultCache(tmp_path / "cache")
        executor = Executor(
            workers=2,
            fault=f"crash:hash={target}:always",
            backoff_s=0.01,
            run_log=log,
        )
        table = fig20.reduce(executor.map(JOBS(), cache))
        assert table.format() == serial_table
        report = executor.last_report
        assert report.degraded
        assert report.salvaged >= 1  # pool-completed results carried over
        # Salvage means salvage: no unique job was ever computed twice.
        assert cache.stats.stores == len(JOBS())
        degraded = [
            r for r in read_log(log) if r["event"] == "job" and r["degraded"]
        ]
        assert degraded  # the crashy job finished in-process
        assert all(r["worker_pid"] == os.getpid() for r in degraded)

    def test_a_degraded_job_keeps_its_retry_budget(self, monkeypatch, tmp_path):
        """A job that reaches the in-process loop at attempt k is retried
        there only while ``attempt <= max_retries`` — one budget, not a
        fresh ``max_retries`` on top of what the pool spent."""
        import repro.experiments.executor as executor_module

        real = executor_module.run_job

        def broken_here(jb, fault=None):
            # In a worker the crash fault is bound and fires; here (no
            # fault is ever bound in-process) the job raises.
            if fault is None:
                raise RuntimeError("fails in process")
            return real(jb, fault)

        monkeypatch.setattr(executor_module, "run_job", broken_here)
        log = tmp_path / "run.jsonl"
        # One worker, budget 3 rebuilds: four crashes, then the job
        # reaches the in-process loop at attempt 5.
        executor = Executor(
            1, fault="crash:*:always", max_retries=6, backoff_s=0.001, run_log=log
        )
        with pytest.raises(ExecutionError) as excinfo:
            executor.map(JOBS()[:1])
        assert excinfo.value.attempts == 7  # 5 and 6 retried, 7 > max_retries
        report = executor.last_report
        assert report.degraded and report.pool_rebuilds == 3
        assert report.retries == 4 + 2
        executor.close()
        (failed,) = [r for r in read_log(log) if r.get("status") == "failed"]
        assert failed["degraded"] and failed["attempts"] == 7


class TestRetriesAndFailure:
    def test_error_fault_retried_then_succeeds(self, serial_table):
        executor = Executor(
            workers=2, fault="error:index=2", max_retries=2, backoff_s=0.01
        )
        table = fig20.reduce(executor.map(JOBS()))
        assert table.format() == serial_table
        assert executor.last_report.retries == 1
        assert executor.last_report.failures == 0

    def test_exhausted_retries_raise_after_salvage(self, tmp_path):
        target = JOBS()[3].content_hash[:12]
        cache = ResultCache(tmp_path)
        executor = Executor(
            workers=2,
            fault=f"error:hash={target}:always",
            max_retries=1,
            backoff_s=0.01,
        )
        with pytest.raises(ExecutionError) as excinfo:
            executor.map(JOBS(), cache)
        assert excinfo.value.attempts == 2  # 1 try + 1 retry
        report = executor.last_report
        assert report.failures == 1
        # Completed values flowed into the cache before the failure.
        assert report.salvaged == len(JOBS()) - 1
        assert cache.stats.stores == len(JOBS()) - 1
        # A rerun without the fault answers the salvage from the cache.
        clean = Executor()
        clean.map(JOBS(), cache)
        assert clean.last_report.computed == 1
        assert clean.last_report.cache_hits == len(JOBS()) - 1

    def test_serial_executor_retries_transient_errors(self, monkeypatch):
        """In-process execution shares the bounded-retry machinery."""
        import repro.experiments.executor as executor_module

        calls = {"n": 0}
        real = executor_module.run_job

        def flaky(jb, fault=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(jb, fault)

        monkeypatch.setattr(executor_module, "run_job", flaky)
        executor = Executor(max_retries=2, backoff_s=0.0)
        results = executor.map(JOBS()[:2])
        assert len(results) == 2
        assert executor.last_report.retries == 1

    def test_serial_executor_raises_when_budget_exhausted(self, monkeypatch):
        import repro.experiments.executor as executor_module

        def always_broken(jb, fault=None):
            raise RuntimeError("permanent")

        monkeypatch.setattr(executor_module, "run_job", always_broken)
        executor = Executor(max_retries=1, backoff_s=0.0)
        with pytest.raises(ExecutionError, match="after 2 attempt"):
            executor.map(JOBS()[:1])
        assert executor.last_report.failures == 1


class TestTimeouts:
    def test_stuck_job_times_out_and_is_retried(self, tmp_path, serial_table):
        log = tmp_path / "run.jsonl"
        executor = Executor(
            workers=2,
            fault="hang=3:index=1",  # attempt 1 stalls 3s
            job_timeout=0.75,
            backoff_s=0.01,
            run_log=log,
        )
        table = fig20.reduce(executor.map(JOBS()))
        assert table.format() == serial_table
        report = executor.last_report
        assert report.timeouts == 1
        assert report.retries >= 1
        assert report.pool_rebuilds >= 1  # the stuck worker was killed
        summary = [r for r in read_log(log) if r["event"] == "map"][-1]
        assert summary["timeouts"] == 1

    def test_persistent_hang_exhausts_budget(self):
        executor = Executor(
            workers=2,
            fault="hang=3:index=0:always",
            job_timeout=0.3,
            max_retries=0,
            backoff_s=0.01,
        )
        with pytest.raises(ExecutionError, match="job-timeout"):
            executor.map(JOBS()[:2])
        assert executor.last_report.timeouts == 1
        assert executor.last_report.failures == 1


class TestRunLog:
    def test_one_record_per_job_plus_summary(self, tmp_path):
        log = tmp_path / "run.jsonl"
        cache = ResultCache(tmp_path / "cache")
        executor = Executor(run_log=log)
        js = JOBS()
        executor.map(js, cache)
        executor.map(js, cache)  # warm: all cached
        records = read_log(log)
        jobs = [r for r in records if r["event"] == "job"]
        summaries = [r for r in records if r["event"] == "map"]
        assert len(jobs) == 2 * len(js)
        assert len(summaries) == 2
        cold, warm = summaries
        assert cold["computed"] == len(js) and cold["cache_hits"] == 0
        assert warm["computed"] == 0 and warm["cache_hits"] == len(js)
        computed = [r for r in jobs if r["status"] == "computed"]
        cached = [r for r in jobs if r["status"] == "cached"]
        assert len(computed) == len(js) and len(cached) == len(js)
        for record in computed:
            assert record["attempts"] == 1
            assert record["worker_pid"] is not None
            assert record["hash"] and record["figure"] == "fig20"
        for record in records:
            assert "ts" in record

    def test_deduplicated_jobs_are_logged(self, tmp_path):
        log = tmp_path / "run.jsonl"
        js = fig20.jobs("fast", p_values=[0.1, 0.1, 0.3])
        executor = Executor(run_log=log)
        executor.map(js)
        statuses = [r["status"] for r in read_log(log) if r["event"] == "job"]
        assert statuses.count("computed") == 2
        assert statuses.count("deduplicated") == 1

    def test_a_map_record_names_its_figures(self, tmp_path):
        log = tmp_path / "run.jsonl"
        executor = Executor(run_log=log)
        executor.map(fig11.jobs("fast")[:1] + JOBS() + JOBS()[:1])
        executor.map([])
        summaries = [r for r in read_log(log) if r["event"] == "map"]
        assert [r["figures"] for r in summaries] == [["fig11", "fig20"], []]

    def test_a_map_record_carries_the_coordinators_peak_rss(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        resource = pytest.importorskip("resource")
        log = tmp_path / "run.jsonl"
        executor = Executor(run_log=log)
        executor.map(JOBS())
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        monkeypatch.setattr(executor_module, "resource", None)  # a platform without it
        executor.map(JOBS())
        measured, absent = [r for r in read_log(log) if r["event"] == "map"]
        assert measured["peak_rss_mb"] > 0
        if sys.platform.startswith("linux"):  # ru_maxrss is KB here, bytes on macOS
            assert measured["peak_rss_mb"] <= round(peak_kb / 1024, 1)
        assert "peak_rss_mb" not in absent
        assert "peak_rss_mb" not in executor.last_report.as_dict()

    def test_close_closes_only_a_run_log_it_opened(self, tmp_path, monkeypatch):
        from_path = make_executor(0, run_log=tmp_path / "path.jsonl")
        monkeypatch.setenv("REPRO_RUN_LOG", str(tmp_path / "env.jsonl"))
        from_env = make_executor(0)
        theirs = RunLog(tmp_path / "theirs.jsonl")
        passed_in = make_executor(0, run_log=theirs)
        for executor in (from_path, from_env, passed_in):
            executor.map(JOBS()[:1])
            executor.close()
        assert from_path.run_log._handle is None
        assert from_env.run_log._handle is None
        assert theirs._handle is not None  # its owner closes it
        theirs.close()

    def test_env_configuration(self, tmp_path, monkeypatch):
        log = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_RUN_LOG", str(log))
        executor = make_executor(0)
        assert isinstance(executor.run_log, RunLog)
        assert executor.run_log.path == log
        executor.map(JOBS()[:1])
        assert log.exists() and read_log(log)

    @pytest.mark.parametrize("raw", ["0", "-1", "nan"])
    def test_job_timeout_argument_and_flag_must_be_positive(self, raw, capsys):
        # A timeout that is not > 0 expires every job the instant it is
        # submitted (and NaN never fires).
        with pytest.raises(ValueError, match=f"job_timeout.*{raw}"):
            Executor(2, job_timeout=float(raw))
        assert_usage_error(capsys, f"--job-timeout={raw}", f"job_timeout.*{raw}")

    @pytest.mark.parametrize(
        "flag, message",
        [("--max-retries=-1", "max_retries.*-1"), ("--parallel=-3", "parallel.*-3")],
    )
    def test_a_bad_executor_flag_is_a_usage_error(self, flag, message, capsys):
        assert_usage_error(capsys, flag, message)

    @pytest.mark.parametrize("parallel", ["0", "1"])
    def test_a_timeout_without_workers_is_a_usage_error(self, parallel, capsys):
        # In process, nothing could kill a stuck job: the bound would be a no-op.
        with pytest.raises(ValueError, match="--parallel N with N >= 2"):
            Executor(0, job_timeout=1.0)
        assert_usage_error(
            capsys, "--job-timeout=0.000001", "--parallel N with N >= 2", "--parallel", parallel
        )

    def test_a_cache_dir_without_the_cache_is_a_usage_error(self, tmp_path, capsys):
        assert_usage_error(capsys, f"--cache-dir={tmp_path}", "--cache-dir.*--no-cache")
        assert not any(tmp_path.iterdir())


def assert_usage_error(capsys, flag, message, *more):
    """``repro run`` with ``flag`` (and ``more``): exit 2 and one line on
    stderr, like every other usage error — not a traceback out of ``Executor``."""
    from repro.cli import main

    assert main(["run", "fig20", "--no-cache", flag, *more]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f".*{message}.*\n", captured.err)


class TestWorkerCountValidation:
    def test_zero_workers_run_in_process(self, tmp_path, serial_table):
        """``Executor(0)`` runs every job here; a negative count is
        rejected.  ``make_executor`` maps 0 and 1 to zero workers."""
        log = tmp_path / "run.jsonl"
        with Executor(0, run_log=log) as executor:
            assert fig20.reduce(executor.map(JOBS())).format() == serial_table
            assert not executor._slots
        computed = [r for r in read_log(log) if r.get("status") == "computed"]
        assert {r["worker_pid"] for r in computed} == {os.getpid()}
        with pytest.raises(ValueError, match="-1"):
            Executor(-1)
        assert make_executor(0).workers == make_executor(1).workers == 0

    def test_last_report_exists_before_first_map(self):
        """``executor.last_report`` must be readable on a figure that
        short-circuits before mapping (as the CLI does)."""
        for executor in (Executor(), Executor(2)):
            report = executor.last_report
            assert report.jobs == 0 and report.computed == 0
            assert not report.degraded

