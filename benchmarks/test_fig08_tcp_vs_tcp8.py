"""Benchmark: regenerate Figure 8 (TCP vs TCP(1/8), oscillating bandwidth)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig08_tcp_vs_tcp8(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig08", scale, executor=executor, cache=result_cache))
    report("fig08_tcp_vs_tcp8", table)

    tcp_means = table.column("tcp_mean_share")
    slow_means = table.column("other_mean_share")
    # The paper's deployability claims: the two AIMD variants share the
    # oscillating link without either mistreating the other — every mean
    # share stays within a moderate band of equitable.  (The paper found
    # TCP modestly ahead; in this substrate TCP(1/8) is modestly ahead
    # instead — without SACK, the ON-transition loss bursts cost the
    # sharper-decrease sender more in recovery.  See EXPERIMENTS.md.)
    assert min(tcp_means) > 0.35
    assert min(slow_means) > 0.35
    for tcp_share, slow_share in zip(tcp_means, slow_means):
        ratio = tcp_share / slow_share
        assert 0.5 < ratio < 2.0
