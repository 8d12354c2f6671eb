"""Benchmark: regenerate Figure 16 (utilization under 10:1 oscillation)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig16_extreme_oscillation(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig16", scale, executor=executor, cache=result_cache))
    report("fig16_extreme_oscillation", table)

    # Paper: with 10:1 oscillations none of the mechanisms is particularly
    # successful — every protocol leaves bandwidth on the table somewhere.
    worst_of = {
        protocol: min(value for _, _, value in table.rows_where("protocol", protocol))
        for protocol in set(table.column("protocol"))
    }
    assert all(worst < 0.9 for worst in worst_of.values())
    # TFRC's worst point is no better than TCP's worst point (the paper
    # finds TFRC particularly bad at some frequencies).
    assert worst_of["TFRC(6)"] <= worst_of["TCP(0.5)"] + 0.05
