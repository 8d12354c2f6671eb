"""Benchmark: regenerate Figure 14 (utilization under 3:1 oscillation)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig14_oscillation_utilization(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig14", scale, executor=executor, cache=result_cache))
    report("fig14_oscillation_utilization", table)

    shortest, *middle, longest = sorted(set(table.column("on_off_s")))
    for protocol in sorted(set(table.column("protocol"))):
        series = {on_s: value for _, on_s, value in table.rows_where("protocol", protocol)}
        # Short bursts are absorbed by the queue: high utilization.
        assert series[shortest] > 0.8
        # The mid-range ON/OFF times (a few RTTs) are the costly ones.
        assert min(series[t] for t in middle) < series[shortest]
