"""Benchmark: regenerate Figure 6 (flash crowd vs SlowCC background)."""

from conftest import run_once

from repro.experiments import run_figure


def crowd_peak(table, background: str) -> float:
    rows = table.rows_where("background", background)
    return max(crowd for (_, _, _, crowd) in rows)


def test_fig06_flash_crowd(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig06", scale, executor=executor, cache=result_cache))
    report("fig06_flash_crowd", table)

    backgrounds = set(table.column("background"))
    assert backgrounds == {"TCP(0.5)", "TFRC(256)", "TFRC(256)+SC"}
    # The crowd of slow-starting short flows grabs a large share against a
    # TCP background...
    tcp_peak = crowd_peak(table, "TCP(0.5)")
    assert tcp_peak > 0.5  # Mbps, a visible bite of the link
    # ...and self-clocking lets the crowd through at least as well as the
    # unmodified TFRC(256) does.
    assert crowd_peak(table, "TFRC(256)+SC") >= 0.9 * crowd_peak(table, "TFRC(256)")
