"""Benchmark: regenerate Figure 17 (mild bursty losses: TFRC vs TCP(1/8))."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig17_mild_bursty(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig17", scale, executor=executor, cache=result_cache))
    report("fig17_mild_bursty", table)

    rows = {name: (thpt, cov, ratio) for name, thpt, cov, ratio, _, _ in table.rows}
    tfrc_thpt, tfrc_cov, tfrc_ratio = rows["TFRC(6)"]
    tcp_thpt, tcp_cov, tcp_ratio = rows["TCP(0.125)"]
    # Paper: the mild pattern fits TFRC's averaging — it is smoother than
    # TCP(1/8) while achieving comparable (paper: slightly higher) goodput.
    assert tfrc_cov < tcp_cov
    assert tfrc_ratio >= tcp_ratio
    assert tfrc_thpt > 0.5 * tcp_thpt
