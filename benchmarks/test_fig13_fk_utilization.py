"""Benchmark: regenerate Figure 13 (f(20) / f(200) after doubling)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig13_fk_utilization(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig13", scale, executor=executor, cache=result_cache))
    report("fig13_fk_utilization", table)

    def f20(family, b):
        for fam, bb, f_20, _ in table.rows:
            if fam == family and bb == b:
                return f_20
        raise KeyError((family, b))

    bs = sorted(set(table.column("b_param")))
    bmin, bmax = bs[0], bs[-1]
    # TCP exploits the doubled bandwidth fastest; the slowest variants are
    # left well behind within the first 20 RTTs.
    assert f20("TCP(1/b)", bmin) > f20("TCP(1/b)", bmax)
    assert f20("TCP(1/b)", bmin) > f20("TFRC(b)", bmax)
    assert f20("TFRC(b)", bmax) < 0.8
    # f(k) only improves with more time: f(200) >= f(20) - small jitter.
    for _, _, f_20, f_200 in table.rows:
        assert f_200 >= f_20 - 0.05
    # Valid utilizations; the noisiest variants (e.g. TFRC(2), whose
    # 2-interval averaging is jittery) can dip below the half-link start.
    for _, _, f_20, f_200 in table.rows:
        assert 0.2 <= f_20 <= 1.05
        assert 0.2 <= f_200 <= 1.05
