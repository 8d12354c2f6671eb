"""Plumbing tests for every figure module.

Every registry name is driven through ``run_figure`` — the one-name form
of ``run_figures``, the one road the CLI and the benchmark harness take —
over a miniature cut of its own job list: a tiny config (the overrides
``jobs`` takes) and the first job or two of the figure's sweep, so the
jobs/reduce paths stay covered without the benchmark-scale cost.  A
figure's sweep axes are constants of its module; a test shrinks a figure
by cutting or editing its jobs, never through a knob.
The tests share one temporary-directory cache: a figure simulated by the registry
sweep is a cache hit for its own shape test.  Shape assertions on the
real configurations live in benchmarks/.
"""

import dataclasses
import math
import pathlib

import pytest

from repro.experiments import (
    ALL_FIGURES,
    EXTENSIONS,
    Executor,
    ResultCache,
    Table,
    fig04_stabilization_time,
    run_figure,
    run_figures,
    table_filename,
)
from repro.experiments.jobs import Job, run_job
from repro.experiments.protocols import tcp

TINY_CBR = dict(
    bandwidth_bps=1e6, n_flows=2, warmup_s=2.0, cbr_stop=8.0,
    cbr_restart=10.0, end=14.0,
)
TINY_OSC = dict(
    bandwidth_bps=1.5e6, n_flows_a=1, n_flows_b=1,
    min_duration_s=10.0, periods_to_run=3, max_duration_s=12.0, warmup_s=2.0,
)
#: Figs 14-16's identical flows: two of one protocol.
TINY_IDENTICAL = {**TINY_OSC, "n_flows_a": 2, "n_flows_b": 0}
TINY_LOSS = dict(bandwidth_bps=3e6, duration_s=10.0, warmup_s=2.0)
TINY_CONVERGENCE = dict(bandwidth_bps=1e6, second_start=4.0, end=30.0)
TINY_QUEUE = dict(bandwidth_bps=2e6, n_flows=4, duration_s=25.0, warmup_s=10.0)
TINY_DOUBLING = dict(bandwidth_bps=2e6, n_flows=4, n_stopped=2, stop_at=10.0)

RUNNABLE = {**ALL_FIGURES, **EXTENSIONS}


def first(jobs: list[Job]) -> list[Job]:
    return jobs[:1]


def every(jobs: list[Job]) -> list[Job]:
    return jobs


#: Registry name -> (the config overrides its ``jobs`` takes, the cut of
#: the job list it runs).
TINY = {
    "fig03": (TINY_CBR, first),  # TCP(1/2)
    "fig04": (TINY_CBR, first),  # TCP(1/g) at g = 2
    "fig05": (TINY_CBR, first),
    "fig06": (
        dict(
            bandwidth_bps=2e6,
            n_background=2,
            crowd_rate_per_s=30.0,
            crowd_duration_s=1.0,
            crowd_start=3.0,
            end=8.0,
        ),
        first,  # TCP(1/2) in the background
    ),
    "fig07": (TINY_OSC, lambda jobs: jobs[2:3]),  # the 1 s period
    "fig08": (TINY_OSC, lambda jobs: jobs[2:3]),
    "fig09": (TINY_OSC, lambda jobs: jobs[2:3]),
    "fig10": (TINY_CONVERGENCE, first),  # b = 0.5, seed 1
    "fig11": ({}, every),
    "fig12": (TINY_CONVERGENCE, first),  # k = 1, seed 1
    "fig13": (TINY_DOUBLING, first),  # TCP(1/b) at b = 2
    "fig14": (TINY_IDENTICAL, lambda jobs: jobs[6:7]),  # TCP(1/2), ON/OFF 0.8 s
    "fig15": (TINY_IDENTICAL, lambda jobs: jobs[6:7]),
    "fig16": (TINY_IDENTICAL, lambda jobs: jobs[6:7]),
    # The mild pattern on TCP(1/2), the loss_pattern job the payload pin holds.
    "fig17": (TINY_LOSS, lambda jobs: [dataclasses.replace(jobs[0], protocol=tcp(2))]),
    "fig18": (TINY_LOSS, first),  # TFRC(6)
    "fig19": (TINY_LOSS, every),
    "fig20": ({}, every),
    # TCP(1/2) given 60 RTTs to halve in.
    "responsiveness": (
        {}, lambda jobs: [dataclasses.replace(jobs[0], params=(("observe_rtts", 60),))]
    ),
    "queue_dynamics": (TINY_QUEUE, every),
    "aggressiveness": ({}, first),  # TCP(1/2)
    "fig11_simulated_validation": (dict(bandwidth_bps=1e6, second_start=4.0, end=20.0), every),
    # TCP at p = 0.1.
    "fig20_simulated_validation": (dict(duration_s=10.0, warmup_s=2.0), lambda jobs: jobs[1:2]),
    "ablation_tfrc_conservative_c": (TINY_CBR, every),
    "ablation_red_vs_droptail": (TINY_CBR, every),
    "ablation_history_discounting": (TINY_DOUBLING, every),
    "ablation_rap_packet_conservation": (TINY_CBR, every),
    "ablation_tfrc_oscillation_prevention": (TINY_QUEUE, every),
}

CACHE: ResultCache


@pytest.fixture(scope="module", autouse=True)
def shared_cache(tmp_path_factory):
    global CACHE
    CACHE = ResultCache(tmp_path_factory.mktemp("tiny-figures"))


def tiny_jobs(name: str) -> list[Job]:
    """The registry entry's jobs on its tiny config, cut as ``TINY`` says."""
    config, cut = TINY[name]
    return cut(RUNNABLE[name].jobs("fast", **config))


def tiny(name: str, **options) -> Table:
    """``run_figure(name)`` with the entry's ``jobs`` answering its tiny cut."""
    module, jobs = RUNNABLE[name], tiny_jobs(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "jobs", lambda scale: jobs)
        return run_figure(name, "fast", **{"cache": CACHE, **options})


def module_name(name: str) -> str:
    return RUNNABLE[name].__name__


class TestRegistry:
    def test_all_18_figures_registered(self):
        assert len(ALL_FIGURES) == 18
        assert sorted(ALL_FIGURES) == [f"fig{n:02d}" for n in range(3, 21)]

    def test_results_holds_exactly_one_table_per_registry_entry(self):
        # A committed table that `repro run all --out results/` cannot
        # regenerate (or a registry entry with no golden) fails here.
        results = pathlib.Path(__file__).resolve().parent.parent / "results"
        assert {path.name for path in results.glob("*.txt")} == {
            table_filename(name) for name in RUNNABLE
        }

    @pytest.mark.parametrize("name", list(RUNNABLE))
    def test_every_name_runs_through_run_figure(self, name):
        table = tiny(name)
        assert isinstance(table, Table)
        assert table.rows
        assert all(len(row) == len(table.columns) for row in table.rows)

    @pytest.mark.parametrize("name", list(RUNNABLE))
    def test_a_recorder_does_not_change_the_payload(self, name):
        # Telemetry is pay-for-use: under a recorder a job writes channels,
        # and fires reverse-bottleneck tap events, that it otherwise skips.
        job = tiny_jobs(name)[0]
        traced_text, trace_text = run_job(dataclasses.replace(job, trace=True))
        assert trace_text.startswith('{"__telemetry__"')
        assert traced_text == run_job(job)[0]

    def test_unknown_name_lists_the_available_figures(self):
        with pytest.raises(KeyError) as excinfo:
            run_figure("nope")
        message = excinfo.value.args[0]
        assert "'nope'" in message
        assert all(name in message for name in RUNNABLE)

    def test_trace_without_a_cache_is_rejected(self):
        with pytest.raises(ValueError, match="--trace requires the cache"):
            run_figure("fig11", trace=True)


class TestOneMap:
    """``run_figures`` maps every entry's jobs at once, so the executor's
    dedup sees the points two entries share and computes each once."""

    def test_a_shared_point_is_computed_once_and_the_tables_are_unchanged(self, monkeypatch):
        executor = Executor()
        # Figure 5's jobs are Figure 4's: cutting Figure 4's sweep to its
        # first two points (TCP(1/g) at g = 2 and 16) cuts both.
        sweep = fig04_stabilization_time.jobs
        monkeypatch.setattr(
            fig04_stabilization_time, "jobs", lambda scale, **config: sweep(scale, **config)[:2]
        )
        tables = run_figures(["fig05", "fig04"], executor=executor, **TINY_CBR)
        report = executor.last_report
        assert (report.jobs, report.computed, report.deduplicated) == (4, 2, 2)
        assert list(tables) == ["fig05", "fig04"]
        for name, table in tables.items():
            alone = run_figure(name, executor=executor, **TINY_CBR)
            assert executor.last_report.computed == 2
            assert table.format() == alone.format()

    def test_names_and_trace_are_checked_before_any_job_runs(self):
        executor = Executor()
        with pytest.raises(KeyError) as excinfo:
            run_figures(["fig04", "nope", "fig99"], executor=executor)
        assert "'nope', 'fig99'" in excinfo.value.args[0]
        with pytest.raises(ValueError, match="--trace requires the cache"):
            run_figures(["fig04", "fig05"], executor=executor, trace=True)
        assert executor.last_report.jobs == 0


class TestSimulationFigures:
    def test_fig03(self):
        table = tiny("fig03")
        assert table.rows
        assert set(table.column("protocol")) == {"TCP(0.5)"}

    def test_fig04_and_05_share_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor()
        t4 = tiny("fig04", executor=executor, cache=cache)
        assert executor.last_report.computed == 1
        t5 = tiny("fig05", executor=executor, cache=cache)
        assert executor.last_report.computed == 0
        assert executor.last_report.cache_hits == 1
        assert t4.rows and t5.rows
        assert t4.rows[0][2] > 0
        assert t4.title != t5.title
        with pytest.raises(ValueError):
            fig04_stabilization_time.reduce([], metric="bogus")

    def test_fig06(self):
        assert len(tiny("fig06").rows) == 8  # one row per 1 s bin

    @pytest.mark.parametrize("name", ["fig07", "fig08", "fig09"], ids=module_name)
    def test_fairness_figures(self, name):
        table = tiny(name)
        assert len(table.rows) == 1
        period, tcp_share, other_share, util, drop = table.rows[0]
        assert period == 1.0
        assert tcp_share > 0 and other_share > 0
        assert 0 < util <= 1.5

    def test_fig10(self):
        table = tiny("fig10")
        assert len(table.rows) == 1
        assert table.rows[0][1] > 0

    def test_fig12(self):
        assert len(tiny("fig12").rows) == 1

    def test_fig13(self):
        table = tiny("fig13")
        assert len(table.rows) == 1
        _, _, f20, f200 = table.rows[0]
        assert 0 < f20 <= 1.1 and 0 < f200 <= 1.1

    @pytest.mark.parametrize("name", ["fig14", "fig15", "fig16"], ids=module_name)
    def test_oscillation_figures(self, name):
        table = tiny(name)
        assert len(table.rows) == 1
        assert table.rows[0][2] >= 0

    def test_fig17(self):
        table = tiny("fig17")
        assert len(table.rows) == 1
        assert table.rows[0][1] > 0  # throughput

    def test_fig18(self):
        assert len(tiny("fig18").rows) == 1

    def test_fig19(self):
        names = set(tiny("fig19").column("protocol"))
        assert names == {"IIAD", "SQRT(0.5)"}


class TestAnalyticFigures:
    def test_fig11(self):
        acks = tiny("fig11").column("expected_acks")
        assert all(a > 0 for a in acks)

    def test_fig20(self):
        table = tiny("fig20")
        assert any(math.isnan(row[1]) for row in table.rows)  # pure AIMD cut off
        assert all(row[3] > 0 for row in table.rows)
