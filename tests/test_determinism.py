"""Reproducibility: identical seeds must give identical simulations.

The RNG-stream discipline (every stochastic component draws from its own
named stream) exists so results are exactly reproducible and so adding a
component does not perturb others.  These tests pin that down.
"""


from repro.cc import establish, new_tcp_flow, new_tfrc_flow
from repro.experiments.jobs import execute_job, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.scenarios import OscillationConfig
from repro.net import Dumbbell
from repro.sim import RngRegistry, Simulator


def run_two_flow(seed: int) -> tuple[float, float, int]:
    sim = Simulator()
    net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05, rng=RngRegistry(seed))
    s1, k1 = new_tcp_flow(sim)
    f1 = establish(net, s1, k1)
    s2, r2 = new_tfrc_flow(sim)
    f2 = establish(net, s2, r2)
    s1.start_at(0.0)
    s2.start_at(0.1)
    sim.run(until=20.0)
    return (
        net.accountant.throughput_bps(f1, 5.0, 20.0),
        net.accountant.throughput_bps(f2, 5.0, 20.0),
        net.monitor.drops_in(0.0, 20.0),
    )


class TestDeterminism:
    def test_same_seed_identical_everything(self):
        a = run_two_flow(42)
        b = run_two_flow(42)
        assert a == b  # bit-for-bit identical trajectories

    def test_different_seed_differs(self):
        assert run_two_flow(1) != run_two_flow(2)

    def test_scenario_level_determinism(self):
        cfg = OscillationConfig(
            bandwidth_bps=1.5e6,
            n_flows_a=2,
            n_flows_b=2,
            min_duration_s=15.0,
            periods_to_run=3,
            max_duration_s=20.0,
            warmup_s=3.0,
            seed=7,
        )
        jb = job(
            "adhoc",
            "oscillation",
            config=cfg,
            protocol=tcp(2),
            params={"period_s": 1.0, "protocol_b": tfrc(6)},
        )
        r1, r2 = execute_job(jb), execute_job(jb)
        assert r1["shares_a"] == r2["shares_a"]
        assert r1["shares_b"] == r2["shares_b"]
        assert r1["drop_rate"] == r2["drop_rate"]

    def test_adding_unrelated_stream_does_not_perturb(self):
        """Drawing from a new named stream must not change existing ones."""
        reg_a = RngRegistry(5)
        first = [reg_a.stream("red").random() for _ in range(3)]
        reg_b = RngRegistry(5)
        reg_b.stream("unrelated").random()  # extra stream created & used
        second = [reg_b.stream("red").random() for _ in range(3)]
        assert first == second
