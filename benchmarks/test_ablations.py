"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

1. TFRC's conservative cap constant C (paper used 1.1, ns-2 shipped 1.5).
2. RED vs DropTail at the bottleneck for the CBR-restart scenario (the
   paper reports the self-clocking benefit holds for both).
3. TFRC history discounting on/off for the f(k) time-of-plenty metric
   (the paper turns it off in Figure 13; discounting should help).
4. Packet conservation applied to RAP (the paper demonstrates the
   principle on TFRC; the same clamp repairs RAP's stabilization cost).
5. TFRC's optional oscillation prevention (RFC 3448 4.5, not in the paper).

Each is a registry entry (``repro run ablation_...``); rows at the paper's
setting are Figure 4 / 13 / queue_dynamics jobs from the session cache.
"""

from conftest import run_once

from repro.experiments import run_figure


def test_ablation_tfrc_conservative_c(benchmark, scale, report, executor, result_cache):
    """The cap constant barely matters next to having the cap at all."""
    table = run_once(benchmark, lambda: run_figure("ablation_tfrc_conservative_c", scale, executor=executor, cache=result_cache))
    report("ext_ablation_tfrc_conservative_c", table)
    cost = dict(zip(table.column("variant"), table.column("stab_cost")))
    for c_name in ("TFRC(256)+SC(C=1.1)", "TFRC(256)+SC(C=1.5)"):
        assert cost[c_name] < cost["TFRC(256)"] / 3


def test_ablation_red_vs_droptail(benchmark, scale, report, executor, result_cache):
    """Self-clocking's benefit is not a RED artifact (paper Sec 4.1.1)."""
    table = run_once(benchmark, lambda: run_figure("ablation_red_vs_droptail", scale, executor=executor, cache=result_cache))
    report("ext_ablation_red_vs_droptail", table)
    cost = {(queue, variant): value for queue, variant, _, value in table.rows}
    for queue in ("red", "droptail"):
        assert cost[queue, "TFRC(256)+SC"] < cost[queue, "TFRC(256)"]


def test_ablation_history_discounting(benchmark, scale, report, executor, result_cache):
    """Discounting lets TFRC exploit a time of plenty faster (f(200))."""
    table = run_once(benchmark, lambda: run_figure("ablation_history_discounting", scale, executor=executor, cache=result_cache))
    report("ext_ablation_history_discounting", table)
    f200 = dict(zip(table.column("variant"), table.column("f200")))
    # never meaningfully worse
    assert f200["TFRC(8) discounting"] > f200["TFRC(8) no discounting"] - 0.05


def test_ablation_rap_packet_conservation(benchmark, scale, report, executor, result_cache):
    """The paper's principle generalizes: clamping RAP's virtual window to
    the delivered ACK rate repairs its stabilization cost too."""
    table = run_once(benchmark, lambda: run_figure("ablation_rap_packet_conservation", scale, executor=executor, cache=result_cache))
    report("ext_ablation_rap_packet_conservation", table)
    cost = dict(zip(table.column("variant"), table.column("stab_cost")))
    assert cost["RAP(1/256)+SC"] < cost["RAP(1/256)"] / 2


def test_ablation_tfrc_oscillation_prevention(benchmark, scale, report, executor, result_cache):
    """RFC 3448 4.5 (not used by the paper): scaling the instantaneous rate
    by R_sqmean/sqrt(R_sample) damps TFRC's queue oscillations."""
    table = run_once(benchmark, lambda: run_figure("ablation_tfrc_oscillation_prevention", scale, executor=executor, cache=result_cache))
    report("ext_ablation_tfrc_oscillation_prevention", table)
    queue_cov = dict(zip(table.column("variant"), table.column("queue_cov")))
    assert queue_cov["TFRC(6)+OP"] < queue_cov["TFRC(6)"] * 0.7
