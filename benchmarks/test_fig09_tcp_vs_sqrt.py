"""Benchmark: regenerate Figure 9 (TCP vs SQRT(1/2), oscillating bandwidth)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig09_tcp_vs_sqrt(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig09", scale, executor=executor, cache=result_cache))
    report("fig09_tcp_vs_sqrt", table)

    tcp_means = table.column("tcp_mean_share")
    sqrt_means = table.column("other_mean_share")
    assert sum(tcp_means) > 0.9 * sum(sqrt_means)
    assert min(sqrt_means) > 0.2
    # Aggregate utilization stays reasonable across periods.
    assert max(table.column("utilization")) > 0.7
