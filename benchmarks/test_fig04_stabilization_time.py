"""Benchmark: regenerate Figure 4 (stabilization time vs gamma)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig04_stabilization_time(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig04", scale, executor=executor, cache=result_cache))
    report("fig04_stabilization_time", table)

    time_rtts = {(family, gamma): value for family, gamma, value in table.rows}
    gmax = max(table.column("gamma"))
    # Self-clocked algorithms stabilize within tens of RTTs even at the
    # slowest setting; the rate-based ones take hundreds.
    assert time_rtts["TCP(1/g)", gmax] < 60
    assert time_rtts["SQRT(1/g)", gmax] < 60
    assert time_rtts["TFRC(g)", gmax] > 100
    assert time_rtts["RAP(1/g)", gmax] > 100
    # The paper's fix: TFRC with self-clocking behaves like the window-based
    # algorithms again.
    assert time_rtts["TFRC(g)+SC", gmax] < time_rtts["TFRC(g)", gmax] / 3
    # At the TCP-like end of the sweep everyone stabilizes promptly.
    gmin = min(table.column("gamma"))
    for family in ("TCP(1/g)", "SQRT(1/g)", "TFRC(g)", "RAP(1/g)"):
        assert time_rtts[family, gmin] < 100
