"""Benchmark: regenerate Figure 7 (TCP vs TFRC, oscillating bandwidth)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig07_tcp_vs_tfrc(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig07", scale, executor=executor, cache=result_cache))
    report("fig07_tcp_vs_tfrc", table)

    tcp_means = table.column("tcp_mean_share")
    tfrc_means = table.column("other_mean_share")
    # Paper: under oscillating bandwidth TCP out-competes TFRC overall, and
    # TFRC never wins in the long term.
    assert sum(tcp_means) > sum(tfrc_means)
    assert all(tcp >= 0.9 * tfrc for tcp, tfrc in zip(tcp_means, tfrc_means))
    # Both classes of flows stay alive at every oscillation period.
    assert min(tfrc_means) > 0.1
