"""Benchmark: the Section 3 responsiveness metric, measured directly."""

import math

import pytest
from conftest import run_once

from repro.experiments import run_figure


def test_ext_responsiveness(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("responsiveness", scale, executor=executor, cache=result_cache))
    report("ext_responsiveness", table)

    measured = dict(zip(table.column("protocol"), table.column("measured_rtts")))
    # Ordering: TCP is the most responsive; TFRC(6) takes several RTTs
    # (paper: 4-6 plus our detection latency); TFRC(256) is effectively
    # unresponsive on this timescale.
    assert measured["TCP(1/2)"] <= 8
    assert measured["TCP(1/2)"] <= measured["TFRC(6)"]
    assert 4 <= measured["TFRC(6)"] <= 20
    tfrc256 = measured["TFRC(256)"]
    assert math.isnan(tfrc256) or tfrc256 > 50


def test_ext_aggressiveness(benchmark, scale, report, executor, result_cache):
    """AIMD's measured per-RTT increase equals the analytic a(b); TFRC's is
    far smaller and grows with history discounting."""
    table = run_once(benchmark, lambda: run_figure("aggressiveness", scale, executor=executor, cache=result_cache))
    report("ext_aggressiveness", table)

    rows = {name: (measured, analytic) for name, measured, analytic in table.rows}
    for name in ("TCP(1/2)", "TCP(1/8)"):
        measured, analytic = rows[name]
        assert measured == pytest.approx(analytic, rel=0.2)
    tfrc_plain = rows["TFRC(6) no-disc"][0]
    tfrc_disc = rows["TFRC(6) disc"][0]
    assert tfrc_plain < rows["TCP(1/2)"][0]
    assert tfrc_disc > tfrc_plain
