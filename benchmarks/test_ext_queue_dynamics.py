"""Benchmark: queue dynamics by sender type and AQM (extension)."""

from conftest import run_once

from repro.experiments import run_figure


def test_ext_queue_dynamics(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("queue_dynamics", scale, executor=executor, cache=result_cache))
    report("ext_queue_dynamics", table)

    rows = {
        (proto, aqm): (mean_q, cov, loss)
        for proto, aqm, mean_q, cov, loss in table.rows
    }
    protocols = sorted({proto for proto, _ in rows})
    # RED holds a (much) lower standing queue than same-depth DropTail.
    for proto in protocols:
        assert rows[(proto, "red")][0] < rows[(proto, "droptail")][0]
    # Within the window-based AIMD family, the gentler decrease oscillates
    # the RED queue less.
    assert rows[("TCP(0.125)", "red")][1] < rows[("TCP(0.5)", "red")][1]
    # All loss rates are sane for a congested bottleneck.
    for (_, _), (_, _, loss) in rows.items():
        assert 0.0 <= loss < 0.2
