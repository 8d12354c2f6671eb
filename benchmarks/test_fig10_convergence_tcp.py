"""Benchmark: regenerate Figure 10 (0.1-fair convergence for TCP(b))."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig10_convergence_tcp(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig10", scale, executor=executor, cache=result_cache))
    report("fig10_convergence_tcp", table)

    bs = table.column("b")
    times = table.column("convergence_s")
    by_b = dict(zip(bs, times))
    assert all(t > 0 for t in times)
    # Paper: b >= ~0.2 converges promptly; very small b takes far longer.
    fast_region = [t for b, t in by_b.items() if b >= 0.2]
    slowest_b = min(bs)
    assert max(fast_region) < by_b[slowest_b] * 3
    assert by_b[slowest_b] > 4 * min(fast_region)
