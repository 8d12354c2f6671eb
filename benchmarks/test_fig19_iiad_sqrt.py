"""Benchmark: regenerate Figure 19 (IIAD vs SQRT, mild bursty losses)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig19_iiad_sqrt(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig19", scale, executor=executor, cache=result_cache))
    report("fig19_iiad_sqrt", table)

    rows = {
        name: (thpt, cov, ratio)
        for name, thpt, cov, ratio, _, _ in table.rows
    }
    iiad_thpt, _, iiad_ratio = rows["IIAD"]
    sqrt_thpt, _, sqrt_ratio = rows["SQRT(0.5)"]
    # Paper: IIAD buys smoothness at the cost of throughput relative to
    # SQRT.  Smoothness is judged by the paper's own metric — the worst
    # consecutive-bin rate ratio (closer to 1 = smoother): IIAD's additive
    # decrease makes its worst single-step change gentler.
    assert iiad_ratio > sqrt_ratio
    assert iiad_thpt < sqrt_thpt
