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
from repro.experiments.executor import Executor
from repro.experiments.jobs import execute_job, indexed, job, run_job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.replay import REPLAYERS, replay_job
from repro.experiments.runner import Table
from repro.experiments.scenarios import CbrRestartConfig, OscillationConfig
from repro.telemetry import Recorder
from repro.telemetry.trace import TraceReader

#: The smallest stored trace: a current-schema header and no channels.
EMPTY_TRACE = Recorder().export_text()

#: What a pre-schema-2 version left beside a result under the same salt.
V1_TRACE = (
    '{"__telemetry__": 1, "meta": {}}\n'
    '{"channel": "link.bottleneck.drops", "kind": "counter", '
    '"times": [0.5, 1.25], "values": [1.0, 2.0]}\n'
)


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
# run_job: the trace travels beside the payload
# ---------------------------------------------------------------------------


class TestExecuteJobTracing:
    def test_run_job_returns_the_trace_beside_the_payload(self):
        jb = tiny_cbr_restart_job()
        value_text, trace_text = run_job(jb)
        reader = TraceReader.loads(trace_text)
        assert "link.bottleneck.arrivals" in reader.channels
        assert reader.meta["scenario"] == "cbr_restart"
        assert reader.meta["job"] == jb.describe()
        # execute_job has one return shape: the bare payload, traced or not
        payload = execute_job(jb)
        assert "__trace__" not in payload
        assert canonical(payload) == value_text

    def test_traced_value_equals_untraced_value(self):
        traced_text, _ = run_job(tiny_cbr_restart_job(trace=True))
        plain_text, no_trace = run_job(tiny_cbr_restart_job(trace=False))
        assert traced_text == plain_text
        assert no_trace is None

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
        cache.store_trace(jb, EMPTY_TRACE)
        assert cache.has_trace(jb)
        assert cache.load_trace(jb) == EMPTY_TRACE
        path = cache.trace_path(jb)
        assert path.suffixes == [".trace", ".jsonl"]
        assert path.exists()

    def test_a_cache_needs_a_root(self):
        with pytest.raises(TypeError):
            ResultCache()

    def test_traces_are_not_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        cache.store_trace(jb, EMPTY_TRACE)
        assert len(cache) == 0  # __len__ counts result entries only
        cache.store(jb, {"x": 1})
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "stale", [V1_TRACE, "header\nline\n", "", "\xff\xfe not text", "[1, 2]\n"]
    )
    @pytest.mark.parametrize("on_disk", [True, False])
    def test_a_trace_of_another_schema_is_absent(self, tmp_path, stale, on_disk):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        cache.store(jb, {"x": 1})
        if on_disk:
            cache.trace_path(jb).write_bytes(stale.encode("latin-1"))
        else:
            cache.store_trace(jb, stale)
        assert not cache.has_trace(jb)
        assert cache.load_trace(jb) is None


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorTracing:
    def test_map_stores_result_and_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        results = Executor().map([jb], cache)
        # only the payload reaches results and the cache
        assert "__trace__" not in results[0].value
        assert "__trace__" not in cache.lookup(jb)
        assert cache.has_trace(jb)
        TraceReader.loads(cache.load_trace(jb))  # parses

    def test_pool_worker_ships_the_same_result_and_trace(self, tmp_path):
        # job_timeout forces the job across the pool: the worker ships
        # run_job's (value_text, trace_text) plus its pid.
        jb = tiny_cbr_restart_job()
        serial, pooled = ResultCache(tmp_path / "s"), ResultCache(tmp_path / "p")
        in_process = Executor().map([jb], serial)
        with Executor(2, job_timeout=120.0) as ex:
            from_worker = ex.map([jb], pooled)
        assert canonical(from_worker[0].value) == canonical(in_process[0].value)
        assert pooled.load_trace(jb) == serial.load_trace(jb)

    def test_warm_cache_hit_when_trace_exists(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job()
        ex = Executor()
        ex.map([jb], cache)
        ex.map([jb], cache)
        assert ex.last_report.cache_hits == 1
        assert ex.last_report.computed == 0

    def test_recomputes_when_trace_is_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = Executor()
        # seed the cache via an untraced run: result record, no trace
        plain = ex.map([tiny_cbr_restart_job(trace=False)], cache)
        jb = tiny_cbr_restart_job(trace=True)
        assert not cache.has_trace(jb)
        results = ex.map([jb], cache)
        assert ex.last_report.cache_hits == 0
        assert ex.last_report.computed == 1
        assert cache.has_trace(jb)
        # and the recomputed payload matches the cached one exactly
        assert canonical(results[0].value) == canonical(plain[0].value)

    def test_a_stale_trace_is_re_recorded_and_never_parsed(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        ex = Executor()
        plain = ex.map([tiny_cbr_restart_job(trace=False)], cache)
        jb = tiny_cbr_restart_job(trace=True)
        cache.trace_path(jb).write_text(V1_TRACE)
        # an untraced map still hits: the result beside it is valid
        ex.map([tiny_cbr_restart_job(trace=False)], cache)
        assert (ex.last_report.cache_hits, ex.last_report.computed) == (1, 0)
        assert cache.trace_path(jb).read_text() == V1_TRACE
        # a traced map recomputes and overwrites it with a current trace
        results = ex.map([jb], cache)
        assert (ex.last_report.cache_hits, ex.last_report.computed) == (0, 1)
        assert canonical(results[0].value) == canonical(plain[0].value)
        assert cache.has_trace(jb)
        reader = TraceReader.loads(cache.load_trace(jb))
        assert canonical(replay_job(jb, reader)) == canonical(plain[0].value)
        ex.map([jb], cache)
        assert (ex.last_report.cache_hits, ex.last_report.computed) == (1, 0)

    def test_untraced_jobs_never_touch_traces(self, tmp_path):
        cache = ResultCache(tmp_path)
        jb = tiny_cbr_restart_job(trace=False)
        Executor().map([jb], cache)
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
        results = Executor().map([jb], cache)
        reader = TraceReader.loads(cache.load_trace(jb))
        replayed = replay_job(jb, reader)
        assert canonical(replayed) == canonical(results[0].value)

    @pytest.mark.parametrize(
        "make_job", [tiny_cbr_restart_job, tiny_oscillation_job]
    )
    def test_replay_from_the_memory_cache_and_a_second_export_agree(
        self, tmp_path, make_job
    ):
        jb = make_job()
        first, disk = ResultCache(tmp_path / "first"), ResultCache(tmp_path / "disk")
        results = Executor().map([jb], first)
        Executor().map([jb], disk)
        text = first.load_trace(jb)
        assert text == disk.load_trace(jb)  # two exports of one run
        assert text.encode("utf-8") == disk.trace_path(jb).read_bytes()
        replayed = replay_job(jb, TraceReader.loads(text))
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

    def test_listing_shows_size_and_the_sample_views_are_unchanged(
        self, figure, tmp_path, capsys
    ):
        from repro.cli import main

        rec = Recorder()
        for t in (0.5, 1.25, 1.25):
            rec.counter("link.bottleneck.drops").increment(t)
        rec.series("flow.0.cwnd").record(0.1, 2.0)
        rec.series("flow.0.cwnd").record(0.30000000000000004, float("inf"))
        rec.annotate("scenario", "cbr_restart")
        text = rec.export_text()
        cache = ResultCache(tmp_path)
        (jb,) = _FakeFigure.jobs("fast")
        cache.store(jb, {"protocol": "TCP", "cost": 1.0})
        cache.store_trace(jb, text)
        base = ["trace", figure, "--cache-dir", str(tmp_path)]

        assert main(base) == 0
        assert capsys.readouterr().out == (
            f"job 0: 2 channels  5 samples  {len(text)} bytes  {cache.trace_path(jb)}\n"
        )
        assert main(base + ["--job", "0"]) == 0
        assert capsys.readouterr().out == (
            f"figtest job 0: {cache.trace_path(jb)}\n"
            "  meta scenario = 'cbr_restart'\n"
            "  series  flow.0.cwnd  (2 samples)\n"
            "  counter link.bottleneck.drops  (3 samples)\n"
        )
        assert main(base + ["--job", "0", "--channel", "link.bottleneck.drops"]) == 0
        assert capsys.readouterr().out == "0.5 1.0\n1.25 2.0\n1.25 3.0\n"
        assert main(base + ["--job", "0", "--channel", "flow.0.cwnd"]) == 0
        assert capsys.readouterr().out == "0.1 2.0\n0.30000000000000004 inf\n"

    def test_a_stale_trace_reads_as_no_trace(self, figure, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(tmp_path)
        (jb,) = _FakeFigure.jobs("fast")
        cache.store(jb, {"protocol": "TCP", "cost": 1.0})
        cache.trace_path(jb).write_text(V1_TRACE)
        base = ["trace", figure, "--cache-dir", str(tmp_path)]
        for mode in (["--replay"], ["--job", "0"]):
            assert main(base + mode) == 1
            err = capsys.readouterr().err
            assert "no trace for figtest job 0" in err and "record one with" in err
        assert main(base) == 0
        assert "job 0: no trace" in capsys.readouterr().out

    def test_trace_without_artifacts_fails_cleanly(self, figure, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "empty-cache")
        assert main(["trace", figure, "--replay", "--cache-dir", cache_dir]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_run_trace_requires_the_cache(self, figure, capsys):
        from repro.cli import main

        assert main(["run", figure, "--trace", "--no-cache"]) == 2
        assert "--trace requires the cache" in capsys.readouterr().err
