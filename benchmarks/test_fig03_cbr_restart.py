"""Benchmark: regenerate Figure 3 (drop rate after a CBR restart)."""

from conftest import run_once

from repro.experiments import run_figure


def test_fig03_cbr_restart(benchmark, scale, report, executor, result_cache):
    table = run_once(benchmark, lambda: run_figure("fig03", scale, executor=executor, cache=result_cache))
    report("fig03_cbr_restart", table)

    protocols = set(table.column("protocol"))
    assert len(protocols) == 4
    rates = table.column("loss_rate")
    assert all(0.0 <= r <= 1.0 for r in rates)
    # The restart produces a real congestion transient for every protocol.
    assert max(rates) > 0.05

    from repro.experiments.runner import pick_config
    from repro.experiments.scenarios import CbrRestartConfig

    cfg = pick_config(CbrRestartConfig, scale)

    def post_restart_mean(name: str, window_s: float = 15.0) -> float:
        rows = table.rows_where("protocol", name)
        spike = [
            loss
            for (_, t, loss) in rows
            if cfg.cbr_restart <= t < cfg.cbr_restart + window_s
        ]
        return sum(spike) / len(spike)

    # Shape: TFRC(256) without self-clocking keeps the network in overload
    # far longer than TCP or TFRC+SC after the restart.
    assert post_restart_mean("TFRC(256)") > 1.3 * post_restart_mean("TCP(0.5)")
    assert post_restart_mean("TFRC(256)") > 1.5 * post_restart_mean("TFRC(256)+SC")
