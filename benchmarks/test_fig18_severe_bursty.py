"""Benchmark: regenerate Figure 18 (severe bursty losses punish TFRC)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig18_severe_bursty(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig18", scale, executor=executor, cache=result_cache))
    report("fig18_severe_bursty", table)

    rows = {name: (thpt, cov, ratio) for name, thpt, cov, ratio, _, _ in table.rows}
    tfrc_thpt, tfrc_cov, _ = rows["TFRC(6)"]
    tcp8_thpt, _, _ = rows["TCP(0.125)"]
    tcp_thpt, _, _ = rows["TCP(0.5)"]
    # Paper: the crafted pattern makes TFRC lose to TCP(1/8) and even to
    # TCP(1/2) in throughput...
    assert tfrc_thpt < tcp_thpt
    assert tfrc_thpt < 1.15 * tcp8_thpt
    # ...and destroys the smoothness that justified it (compare the mild
    # pattern, where TFRC's cov is ~0.1).
    assert tfrc_cov > 0.4
