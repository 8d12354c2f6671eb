"""Benchmark: regenerate Figure 12 (0.1-fair convergence for TFRC(k))."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig12_convergence_tfrc(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig12", scale, executor=executor, cache=result_cache))
    report("fig12_convergence_tfrc", table)

    ks = table.column("k")
    times = table.column("convergence_s")
    by_k = dict(zip(ks, times))
    assert all(t > 0 for t in times)
    # Paper: convergence grows far more slowly with TFRC's k than with
    # TCP's 1/b — even the slowest TFRC converges within the run, well
    # before the never-converged ceiling, and the spread across two orders
    # of magnitude of k stays within a modest factor.
    from repro.experiments.runner import pick_config
    from repro.experiments.scenarios import ConvergenceConfig

    cfg = pick_config(ConvergenceConfig, scale)
    ceiling = cfg.end - cfg.second_start
    assert max(times) < 0.5 * ceiling
    assert max(times) < 20 * min(times)
