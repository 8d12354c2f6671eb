"""Plumbing tests for every figure module.

Every registry name is driven through ``run_figure`` — the one road the
CLI and the benchmark harness take — with miniature parameter overrides,
so the jobs/reduce paths stay covered without the benchmark-scale cost.
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
    table_filename,
)
from repro.experiments.jobs import run_job
from repro.experiments.protocols import tcp

TINY_CBR = dict(
    bandwidth_bps=1e6, n_flows=2, warmup_s=2.0, cbr_stop=8.0,
    cbr_restart=10.0, end=14.0,
)
TINY_OSC = dict(
    bandwidth_bps=1.5e6, n_flows_a=1, n_flows_b=1,
    min_duration_s=10.0, periods_to_run=3, max_duration_s=12.0, warmup_s=2.0,
)
TINY_LOSS = dict(bandwidth_bps=3e6, duration_s=10.0, warmup_s=2.0)
TINY_STABILIZATION = dict(
    gammas=[2], families={"TCP(1/g)": lambda g: tcp(g)}, **TINY_CBR
)
TINY_CONVERGENCE = dict(bandwidth_bps=1e6, second_start=4.0, end=30.0, seeds=(1,))
TINY_OSC_SWEEP = dict(on_times=[0.5], protocols=[tcp(2)], n_flows=2, **TINY_OSC)
TINY_QUEUE = dict(bandwidth_bps=2e6, n_flows=4, duration_s=25.0, warmup_s=10.0)

RUNNABLE = {**ALL_FIGURES, **EXTENSIONS}

#: Miniature overrides for every registry name.
TINY = {
    "fig03": dict(protocols=[tcp(2)], **TINY_CBR),
    "fig04": TINY_STABILIZATION,
    "fig05": TINY_STABILIZATION,
    "fig06": dict(
        protocols=[tcp(2)],
        bandwidth_bps=2e6,
        n_background=2,
        crowd_rate_per_s=30.0,
        crowd_duration_s=1.0,
        crowd_start=3.0,
        end=8.0,
    ),
    "fig07": dict(periods=[1.0], **TINY_OSC),
    "fig08": dict(periods=[1.0], **TINY_OSC),
    "fig09": dict(periods=[1.0], **TINY_OSC),
    "fig10": dict(bs=[0.5], **TINY_CONVERGENCE),
    "fig11": {},
    "fig12": dict(ks=[2], **TINY_CONVERGENCE),
    "fig13": dict(
        gammas=[2],
        families={"TCP(1/b)": lambda g: tcp(g)},
        bandwidth_bps=2e6,
        n_flows=4,
        n_stopped=2,
        stop_at=10.0,
    ),
    "fig14": TINY_OSC_SWEEP,
    "fig15": TINY_OSC_SWEEP,
    "fig16": TINY_OSC_SWEEP,
    "fig17": dict(protocols=[tcp(2)], **TINY_LOSS),
    "fig18": dict(protocols=[tcp(2)], phases=[(2.0, 100), (0.5, 4)], **TINY_LOSS),
    "fig19": TINY_LOSS,
    "fig20": {},
    "responsiveness": dict(observe_rtts=60),
    "queue_dynamics": TINY_QUEUE,
    "aggressiveness": dict(warmup_s=5.0, observe_rtts=10),
    "fig11_simulated_validation": dict(bandwidth_bps=1e6, second_start=4.0, end=20.0),
    "fig20_simulated_validation": dict(p_values=[0.1], duration_s=10.0, warmup_s=2.0),
    "ablation_tfrc_conservative_c": TINY_CBR,
    "ablation_red_vs_droptail": TINY_CBR,
    "ablation_history_discounting": dict(
        bandwidth_bps=2e6, n_flows=4, n_stopped=2, stop_at=10.0
    ),
    "ablation_rap_packet_conservation": TINY_CBR,
    "ablation_tfrc_oscillation_prevention": TINY_QUEUE,
}

CACHE: ResultCache


@pytest.fixture(scope="module", autouse=True)
def shared_cache(tmp_path_factory):
    global CACHE
    CACHE = ResultCache(tmp_path_factory.mktemp("tiny-figures"))


def tiny(name: str) -> Table:
    return run_figure(name, "fast", cache=CACHE, **TINY[name])


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
        job = RUNNABLE[name].jobs("fast", **TINY[name])[0]
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


class TestSimulationFigures:
    def test_fig03(self):
        table = tiny("fig03")
        assert table.rows
        assert set(table.column("protocol")) == {"TCP(0.5)"}

    def test_fig04_and_05_share_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = Executor()
        t4 = run_figure("fig04", executor=executor, cache=cache, **TINY["fig04"])
        assert executor.last_report.computed == 1
        t5 = run_figure("fig05", executor=executor, cache=cache, **TINY["fig05"])
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
