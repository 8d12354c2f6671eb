"""Scenario-level tests on miniature configurations.

These run the real scenario machinery end to end — ``execute_job`` of a
hand-built job, the road ``repro run`` takes — but on tiny links and
short horizons so the whole file stays fast.  Shape-level assertions on the
paper's results live in benchmarks/; here we verify the plumbing: phases
happen, metrics are computed, payloads are well-formed.
"""

import math

import pytest

from repro.experiments.jobs import DropperSpec, execute_job, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.scenarios import (
    CbrRestartConfig,
    ConvergenceConfig,
    DoublingConfig,
    FlashCrowdConfig,
    LossPatternConfig,
    OscillationConfig,
)


def run(scenario_name, cfg, protocol=tcp(2), **params):
    """The payload of one ad-hoc job."""
    return execute_job(
        job("adhoc", scenario_name, config=cfg, protocol=protocol, params=params)
    )


class TestCbrRestart:
    CFG = CbrRestartConfig(
        bandwidth_bps=1e6,
        n_flows=3,
        warmup_s=4.0,
        cbr_stop=15.0,
        cbr_restart=20.0,
        end=35.0,
    )

    def test_result_well_formed(self):
        payload = run("cbr_restart", self.CFG)
        assert payload["protocol"] == "TCP(0.5)"
        assert 0.0 <= payload["steady_loss_rate"] < 0.5
        assert payload["time_s"] > 0
        assert len(payload["series"]) > 0

    def test_congestion_exists_during_cbr(self):
        assert run("cbr_restart", self.CFG)["steady_loss_rate"] > 0.001

    def test_spike_at_restart(self):
        assert run("cbr_restart", self.CFG)["spike_loss_rate"] >= 0.0


class TestOscillation:
    CFG = OscillationConfig(
        bandwidth_bps=1.5e6,
        n_flows_a=2,
        n_flows_b=2,
        min_duration_s=20.0,
        periods_to_run=5,
        max_duration_s=30.0,
        warmup_s=5.0,
    )

    def test_mixed_flows(self):
        payload = run("oscillation", self.CFG, period_s=1.0, protocol_b=tfrc(6))
        assert len(payload["shares_a"]) == 2 and len(payload["shares_b"]) == 2
        assert payload["mean_a"] > 0 and payload["mean_b"] > 0
        assert 0 < payload["utilization"] <= 1.5

    def test_identical_flows(self):
        payload = run("oscillation", self.CFG, period_s=1.0)
        assert payload["protocol_b"] is None
        assert payload["shares_b"] == []
        assert math.isnan(payload["mean_b"])

    def test_duration_respects_bounds(self):
        assert self.CFG.duration(1.0) == 20.0  # min wins
        assert self.CFG.duration(5.0) == 25.0  # periods win
        assert self.CFG.duration(100.0) == 30.0  # max caps

    def test_mean_available(self):
        cfg = OscillationConfig(bandwidth_bps=15e6, cbr_fraction=2 / 3)
        assert cfg.mean_available_bps == pytest.approx(10e6)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            run("oscillation", self.CFG, period_s=0.0)


class TestConvergence:
    CFG = ConvergenceConfig(bandwidth_bps=1e6, second_start=8.0, end=60.0)

    def test_returns_positive_time(self):
        assert 0 < run("convergence", self.CFG) <= 52.0

    def test_slow_start_disabled_by_default(self):
        assert self.CFG.disable_slow_start


class TestDoubling:
    CFG = DoublingConfig(
        bandwidth_bps=2e6,
        n_flows=4,
        n_stopped=2,
        stop_at=20.0,
        ks=(20, 100),
    )

    def test_f_values_in_range(self):
        f_of_k = dict(run("doubling", self.CFG)["f_of_k"])
        assert set(f_of_k) == {20, 100}
        for value in f_of_k.values():
            assert 0.3 <= value <= 1.1

    def test_survivors_pick_up_bandwidth(self):
        # TCP reclaims most of the doubled bandwidth within 100 RTTs.
        assert dict(run("doubling", self.CFG)["f_of_k"])[100] > 0.7


class TestFlashCrowd:
    CFG = FlashCrowdConfig(
        bandwidth_bps=2e6,
        n_background=2,
        crowd_rate_per_s=40.0,
        crowd_duration_s=2.0,
        crowd_start=5.0,
        end=15.0,
    )

    def test_series_and_counts(self):
        payload = run("flash_crowd", self.CFG)
        assert payload["crowd_spawned"] > 20
        assert payload["crowd_completed"] <= payload["crowd_spawned"]
        assert len(payload["background"]) == len(payload["crowd"])
        assert 0 <= payload["crowd_share_during"] <= 1.0

    def test_crowd_quiet_before_start(self):
        crowd = run("flash_crowd", self.CFG)["crowd"]
        before = [v for t, v in crowd if t <= self.CFG.crowd_start]
        assert all(v == 0.0 for v in before)


class TestLossPattern:
    CFG = LossPatternConfig(
        bandwidth_bps=4e6,
        duration_s=20.0,
        warmup_s=4.0,
    )

    def test_result_well_formed(self):
        payload = run("loss_pattern", self.CFG, dropper=DropperSpec("periodic", (100,)))
        assert payload["throughput_bps"] > 0
        assert payload["drops"] > 0
        assert 0 <= payload["smoothness_cov"]

    def test_loss_free_flow_is_smooth(self):
        # A dropper that never fires: the flow saturates and stays flat.
        payload = run("loss_pattern", self.CFG, dropper=DropperSpec("periodic", (10**9,)))
        assert payload["drops"] == 0
        assert payload["smoothness_cov"] < 0.25
