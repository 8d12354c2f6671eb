"""End-to-end tests for trace artifacts: record, persist, replay.

The contract under test: a job run with ``trace=True`` leaves a JSONL
trace beside its cached result, and replaying that trace through
:mod:`repro.experiments.replay` reproduces the job's payload — and hence
the figure's table — **bit-identically**, without simulating anything.
"""

import dataclasses
import json

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.executor import ParallelExecutor, SerialExecutor
from repro.experiments.jobs import execute_job, indexed, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.replay import REPLAYERS, replay_job
from repro.experiments.runner import Table
from repro.experiments.scenarios import CbrRestartConfig, OscillationConfig
from repro.telemetry.trace import TraceReader


def tiny_cbr_restart_job(trace=True):
    cfg = dataclasses.replace(
        CbrRestartConfig.fast(), cbr_stop=6.0, cbr_restart=9.0, end=14.0
    )
    jb = indexed([job("figtest", "cbr_restart", config=cfg, protocol=tcp(), seed=1)])[0]
    return dataclasses.replace(jb, trace=trace)


def tiny_oscillation_job(trace=True):
    jb = indexed(
        [
            job(
                "figtest",
                "oscillation",
                config=OscillationConfig.fast(),
                protocol=tcp(),
                seed=1,
                params={"period_s": 2.0, "protocol_b": tfrc()},
            )
        ]
    )[0]
    return dataclasses.replace(jb, trace=trace)


def canonical(payload):
    return json.dumps(payload, sort_keys=True, allow_nan=True)


# ---------------------------------------------------------------------------
# execute_job wrapping
# ---------------------------------------------------------------------------


class TestExecuteJobTracing:
    def test_traced_execution_wraps_value_and_trace(self):
        jb = tiny_cbr_restart_job()
        wrapped = execute_job(jb)
        assert set(wrapped) == {"__trace__", "value"}
        reader = TraceReader.loads(wrapped["__trace__"])
        assert "link.bottleneck.arrivals" in reader.channels
        assert reader.meta["scenario"] == "cbr_restart"
        assert reader.meta["job"] == jb.describe()

    def test_traced_value_equals_untraced_value(self):
        traced = execute_job(tiny_cbr_restart_job(trace=True))
        plain = execute_job(tiny_cbr_restart_job(trace=False))
        assert canonical(traced["value"]) == canonical(plain)

    def test_trace_flag_does_not_change_the_content_hash(self):
        assert (
            tiny_cbr_restart_job(trace=True).content_hash
            == tiny_cbr_restart_job(trace=False).content_hash
        )


# ---------------------------------------------------------------------------
# Cache trace artifacts
# ---------------------------------------------------------------------------


class TestCacheTraceArtifacts:
    def test_disk_store_load_has(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        assert not cache.has_trace(jb)
        assert cache.load_trace(jb) is None
        cache.store_trace(jb, "header\nline\n")
        assert cache.has_trace(jb)
        assert cache.load_trace(jb) == "header\nline\n"
        path = cache.trace_path(jb)
        assert path is not None and path.suffixes == [".trace", ".jsonl"]
        assert path.exists()

    def test_memory_mode(self):
        cache = ResultCache(None)
        jb = tiny_cbr_restart_job()
        cache.store_trace(jb, "t\n")
        assert cache.has_trace(jb)
        assert cache.load_trace(jb) == "t\n"
        assert cache.trace_path(jb) is None
        cache.clear()
        assert not cache.has_trace(jb)

    def test_traces_are_not_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        cache.store_trace(jb, "t\n")
        assert len(cache) == 0  # __len__ counts result blobs only
        cache.store(jb, {"x": 1})
        assert len(cache) == 1
        assert cache.clear() == 1  # the blob; the trace is swept uncounted
        assert not cache.has_trace(jb)


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorTracing:
    def test_map_stores_result_and_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        results = SerialExecutor().map([jb], cache)
        # the wrapper never leaks into results or the cache
        assert "__trace__" not in results[0].value
        assert "__trace__" not in cache.lookup(jb)
        assert cache.has_trace(jb)
        TraceReader.loads(cache.load_trace(jb))  # parses

    def test_pool_worker_ships_the_same_result_and_trace(self, tmp_path):
        # job_timeout forces the job across the pool: the worker splits
        # the wrapper and ships (value_text, trace_text, pid).
        jb = tiny_cbr_restart_job()
        serial, pooled = ResultCache(tmp_path / "s"), ResultCache(tmp_path / "p")
        in_process = SerialExecutor().map([jb], serial)
        with ParallelExecutor(workers=2, job_timeout=120.0) as ex:
            from_worker = ex.map([jb], pooled)
        assert canonical(from_worker[0].value) == canonical(in_process[0].value)
        assert pooled.load_trace(jb) == serial.load_trace(jb)

    def test_warm_cache_hit_when_trace_exists(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        ex = SerialExecutor()
        ex.map([jb], cache)
        ex.map([jb], cache)
        assert ex.last_report.cache_hits == 1
        assert ex.last_report.computed == 0

    def test_recomputes_when_trace_is_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = SerialExecutor()
        # seed the cache via an untraced run: result blob, no trace
        plain = ex.map([tiny_cbr_restart_job(trace=False)], cache)
        jb = tiny_cbr_restart_job(trace=True)
        assert not cache.has_trace(jb)
        results = ex.map([jb], cache)
        assert ex.last_report.cache_hits == 0
        assert ex.last_report.computed == 1
        assert cache.has_trace(jb)
        # and the recomputed payload matches the cached one exactly
        assert canonical(results[0].value) == canonical(plain[0].value)

    def test_untraced_jobs_never_touch_traces(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job(trace=False)
        SerialExecutor().map([jb], cache)
        assert not cache.has_trace(jb)


# ---------------------------------------------------------------------------
# Replay correctness
# ---------------------------------------------------------------------------


class TestReplay:
    @pytest.mark.parametrize(
        "make_job", [tiny_cbr_restart_job, tiny_oscillation_job]
    )
    def test_replay_is_bit_identical(self, tmp_path, make_job):
        cache = ResultCache(tmp_path)
        jb = make_job()
        results = SerialExecutor().map([jb], cache)
        reader = TraceReader.loads(cache.load_trace(jb))
        replayed = replay_job(jb, reader)
        assert canonical(replayed) == canonical(results[0].value)

    def test_every_simulation_family_used_by_fig04_fig14_is_replayable(self):
        # fig04 reduces cbr_restart jobs, fig14 oscillation jobs.
        assert "cbr_restart" in REPLAYERS
        assert "oscillation" in REPLAYERS

    def test_unsupported_scenario_raises_with_alternatives(self):
        jb = job("figtest", "analysis_acks", params={"b": 1, "p": 0.1, "delta": 0.1})
        with pytest.raises(KeyError, match="replayable scenarios"):
            replay_job(jb, TraceReader({}, {}))


# ---------------------------------------------------------------------------
# CLI: repro run --trace / repro trace
# ---------------------------------------------------------------------------


class _FakeFigure:
    """A minimal figure module over the tiny cbr_restart job."""

    __doc__ = "Fake figure for trace CLI tests."

    @staticmethod
    def jobs(scale):
        return [dataclasses.replace(tiny_cbr_restart_job(trace=False), figure="figtest")]

    @staticmethod
    def reduce(results):
        table = Table(title="figtest", columns=["protocol", "cost"])
        for res in results:
            table.add(res.value["protocol"], res.value["cost"])
        return table


class TestCli:
    @pytest.fixture()
    def figure(self, monkeypatch):
        from repro.experiments import ALL_FIGURES

        monkeypatch.setitem(ALL_FIGURES, "figtest", _FakeFigure)
        return "figtest"

    def test_run_trace_then_replay_is_byte_identical(
        self, figure, tmp_path, capsys
    ):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        out_dir = tmp_path / "out"
        rc = main(
            ["run", figure, "--trace", "--cache-dir", cache_dir,
             "--out", str(out_dir)]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["trace", figure, "--replay", "--cache-dir", cache_dir])
        assert rc == 0
        replayed = capsys.readouterr().out
        assert replayed == (out_dir / "_FakeFigure.txt").read_text()  # <module>.txt

    def test_trace_listing_and_channel_dump(self, figure, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["run", figure, "--trace", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["trace", figure, "--cache-dir", cache_dir]) == 0
        assert "1 channels" not in capsys.readouterr().out  # many channels
        assert main(["trace", figure, "--job", "0", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "link.bottleneck.arrivals" in out
        assert (
            main(
                ["trace", figure, "--job", "0",
                 "--channel", "link.bottleneck.arrivals",
                 "--cache-dir", cache_dir]
            )
            == 0
        )
        dump = capsys.readouterr().out
        assert len(dump.strip().splitlines()) > 0

    def test_trace_without_artifacts_fails_cleanly(self, figure, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "empty-cache")
        assert main(["trace", figure, "--replay", "--cache-dir", cache_dir]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_run_trace_requires_the_cache(self, figure, capsys):
        from repro.cli import main

        assert main(["run", figure, "--trace", "--no-cache"]) == 2
        assert "--trace requires the cache" in capsys.readouterr().err
