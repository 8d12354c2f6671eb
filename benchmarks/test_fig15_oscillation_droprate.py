"""Benchmark: regenerate Figure 15 (drop rates for the Figure 14 runs).

Same jobs as Figure 14 (the content hash excludes the figure label), so
after Figure 14's benchmark every job here is a cache hit.
"""

from conftest import run_once

from repro.experiments import run_figure


def test_fig15_oscillation_droprate(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig15", scale, executor=executor, cache=result_cache))
    report("fig15_oscillation_droprate", table)

    rates = table.column("value")
    assert all(0.0 <= r < 0.5 for r in rates)
    # Congestion exists in every run of this overloaded scenario.
    assert min(rates) > 0.001
