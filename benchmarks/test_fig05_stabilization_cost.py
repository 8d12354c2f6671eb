"""Benchmark: regenerate Figure 5 (stabilization cost vs gamma).

Same jobs as Figure 4 (the content hash excludes the figure label), so
when Figure 4's benchmark ran first every job here is a cache hit and
this one only re-projects the metric.
"""

from conftest import run_once

from repro.experiments import run_figure


def test_fig05_stabilization_cost(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig05", scale, executor=executor, cache=result_cache))
    report("fig05_stabilization_cost", table)

    cost = {(family, gamma): value for family, gamma, value in table.rows}
    gmax = max(table.column("gamma"))
    self_clocked_worst = max(cost["TCP(1/g)", gmax], cost["SQRT(1/g)", gmax])
    # Paper: rate-based algorithms at gamma=256 are one to two orders of
    # magnitude more costly than the slowest self-clocked ones.
    assert cost["TFRC(g)", gmax] > 10 * self_clocked_worst
    assert cost["RAP(1/g)", gmax] > 10 * self_clocked_worst
    # Self-clocking repairs TFRC's cost by a large factor.
    assert cost["TFRC(g)+SC", gmax] < cost["TFRC(g)", gmax] / 5
    # Proposed-range parameters (small gamma) have acceptably low cost for
    # every family.
    gmin = min(table.column("gamma"))
    for family in ("TCP(1/g)", "SQRT(1/g)", "TFRC(g)", "RAP(1/g)", "TFRC(g)+SC"):
        assert cost[family, gmin] < cost["TFRC(g)", gmax]
