"""Benchmark: regenerate Figure 11 (analytic ACKs to 0.1-fairness)."""

import math

from conftest import run_once

from repro.analysis import acks_to_fairness
from repro.experiments import run_figure


def test_fig11_convergence_analysis(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig11", scale, executor=executor, cache=result_cache))
    report("fig11_convergence_analysis", table)

    bs = table.column("b")
    acks = table.column("expected_acks")
    # Strictly decreasing in b (more drastic decrease converges faster).
    pairs = sorted(zip(bs, acks))
    values = [a for _, a in pairs]
    assert all(x > y for x, y in zip(values, values[1:]))
    # Spot value from the closed form at the paper's operating point.
    assert math.isclose(dict(zip(bs, acks))[0.5], acks_to_fairness(0.5, 0.1, 0.1))
    # Knee: the b = 1/256 point is orders of magnitude above b = 0.5.
    assert values[0] / values[-1] > 100


def test_fig11_simulated_validation(benchmark, scale, report, executor, result_cache):
    """Cross-check the analysis against simulation in its own setting:
    two ECN-marked TCP(b) flows, convergence measured in ACKs."""
    table = run_once(benchmark, lambda: run_figure("fig11_simulated_validation", scale, executor=executor, cache=result_cache))
    report("ext_fig11_simulated_validation", table)

    for _, acks, p, model in table.rows:
        assert 0 < p < 1
        # The expected-value model ignores variance and the detection lag;
        # agreement within a small constant factor is the meaningful check.
        assert model / 4 < acks < model * 6
    # The scaling with b matches: slower decrease -> proportionally more ACKs.
    measured = dict(zip(table.column("b"), table.column("measured_acks")))
    models = dict(zip(table.column("b"), table.column("model_acks")))
    measured_ratio = measured[0.125] / measured[0.5]
    model_ratio = models[0.125] / models[0.5]
    assert model_ratio / 2.5 < measured_ratio < model_ratio * 2.5
