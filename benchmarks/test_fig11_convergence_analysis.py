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


def test_fig11_simulated_validation(benchmark, scale, report):
    """Cross-check the analysis against simulation in its own setting:
    two ECN-marked TCP(b) flows, convergence measured in ACKs."""
    from repro.experiments.fig11_convergence_analysis import measure_acks_to_fairness
    from repro.experiments.runner import Table

    def work():
        out = {}
        for b in (0.5, 0.125):
            out[b] = measure_acks_to_fairness(b)
        return out

    results = run_once(benchmark, work)
    table = Table(
        title="Figure 11 (validation): simulated vs analytic ACKs to 0.1-fairness",
        columns=["b", "measured_acks", "mark_rate", "model_acks"],
        notes="Model: log_(1-b*p)(0.1) at the observed mark rate.",
    )
    models = {}
    for b, (acks, p) in results.items():
        model = acks_to_fairness(b, p, 0.1) if 0 < p < 1 else float("nan")
        models[b] = model
        table.add(b, acks, p, model)
    report("fig11_simulated_validation", table)

    for b, (acks, p) in results.items():
        assert 0 < p < 1
        # The expected-value model ignores variance and the detection lag;
        # agreement within a small constant factor is the meaningful check.
        assert models[b] / 4 < acks < models[b] * 6
    # The scaling with b matches: slower decrease -> proportionally more ACKs.
    measured_ratio = results[0.125][0] / results[0.5][0]
    model_ratio = models[0.125] / models[0.5]
    assert model_ratio / 2.5 < measured_ratio < model_ratio * 2.5
