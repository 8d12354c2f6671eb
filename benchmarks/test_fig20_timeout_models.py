"""Benchmark: regenerate Figure 20 (throughput models with/without timeouts)."""

import math

from conftest import run_once

from repro.experiments import run_figure


def test_fig20_timeout_models(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig20", scale, executor=executor, cache=result_cache))
    report("fig20_timeout_models", table)

    for p, pure, with_to, reno in table.rows:
        if p <= 1 / 3:
            # Below one packet/RTT the pure model applies and upper-bounds
            # the Reno model (timeouts only reduce throughput).
            assert not math.isnan(pure)
            assert pure >= reno
        else:
            assert math.isnan(pure)
        if 0.5 <= p <= 0.8:
            # Appendix A: AIMD-with-timeouts upper-bounds Reno at high loss.
            assert with_to >= reno
    # Worked example from the appendix: p = 1/2 -> 2/3 packets per RTT.
    by_p = {p: with_to for p, _, with_to, _ in table.rows}
    assert math.isclose(by_p[0.5], 2.0 / 3.0, rel_tol=1e-9)


def test_fig20_simulated_validation(benchmark, scale, report, executor, result_cache):
    """Appendix A cross-check: drive this library's real TCP through
    Bernoulli loss and verify it lands in the predicted analytic band."""
    table = run_once(benchmark, lambda: run_figure("fig20_simulated_validation", scale, executor=executor, cache=result_cache))
    report("ext_fig20_simulated_validation", table)

    for p, measured, reno_lower, upper in table.rows:
        # The simulated flow tracks Reno from above (SACK-less NewReno with
        # per-packet ACKs is mildly more efficient than the closed form).
        assert measured > 0.75 * reno_lower
        if upper > reno_lower:
            # Where the appendix band is meaningful, stay at or below the
            # AIMD-with-timeouts upper bound.
            assert measured <= upper * 1.1
    # The response is strictly decreasing in p.
    rates = table.column("measured_pkts_per_rtt")
    assert rates == sorted(rates, reverse=True)
