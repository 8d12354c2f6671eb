"""Unit tests for the metrics layer."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.metrics import (
    coefficient_of_variation,
    delta_fair_convergence_time,
    f_of_k,
    jain_index,
    measure_stabilization,
    rate_bins,
    smoothness,
)
from repro.net import Dumbbell, Link, LinkMonitor, Packet
from repro.net.monitor import FlowAccountant
from repro.net.packet import DATA
from repro.sim import Simulator


class FakeMonitor:
    """LinkMonitor stand-in with a scripted loss-rate profile."""

    def __init__(self, profile):
        # profile: list of (start, end, loss_rate)
        self.profile = profile

    def loss_rate(self, start, end):
        mid = (start + end) / 2
        for lo, hi, rate in self.profile:
            if lo <= mid < hi:
                return rate
        return math.nan


class TestStabilization:
    def test_immediate_stabilization(self):
        monitor = FakeMonitor([(0.0, 100.0, 0.01)])
        result = measure_stabilization(
            monitor, congestion_start=10.0, steady_loss_rate=0.01, rtt_s=0.05, end=50.0
        )
        assert result.stabilized
        # First window checked ends at start + 10 RTTs.
        assert result.time_rtts == pytest.approx(10.0)

    def test_long_overload_measured(self):
        # 40% drop rate for 5 s, then back to steady 1%.
        monitor = FakeMonitor([(10.0, 15.0, 0.4), (15.0, 1000.0, 0.01)])
        result = measure_stabilization(
            monitor, congestion_start=10.0, steady_loss_rate=0.01, rtt_s=0.05, end=100.0
        )
        assert result.stabilized
        assert 5.0 <= result.time_s <= 6.0
        assert result.cost > 0

    def test_never_stabilizes(self):
        monitor = FakeMonitor([(0.0, 1000.0, 0.5)])
        result = measure_stabilization(
            monitor, congestion_start=10.0, steady_loss_rate=0.01, rtt_s=0.05, end=60.0
        )
        assert not result.stabilized
        assert result.time_s == pytest.approx(50.0)

    def test_cost_units(self):
        # 50% loss for exactly 2 RTTs -> cost 2 * 50 = 100... the paper's
        # example: cost 1 == one RTT's worth of packets dropped, e.g. 50%
        # drop rate for two RTTs.
        monitor = FakeMonitor([(0.0, 0.1, 0.5), (0.1, 1000.0, 0.0)])
        result = measure_stabilization(
            monitor,
            congestion_start=0.0,
            steady_loss_rate=0.0,
            rtt_s=0.05,
            end=10.0,
        )
        assert result.stabilized

    def test_the_scan_walks_the_rtt_grid_by_index(self):
        # Instants summed t += rtt_s drifted off the grid: fig04's job 11
        # read 446.99999999997516 RTTs where its grid instant gives
        # 446.9999999999999.  Scanned as Figs 3-5 scan the fast restart at
        # 73 s: window k ends at 73 s + 10 RTTs + k RTTs.
        ends = []

        class Never:
            def loss_rate(self, start, end):
                ends.append(end)
                return 1.0

        rtt_s, start = 0.05, 73.0
        measure_stabilization(Never(), start, 0.0, rtt_s, start + 10 * rtt_s + 400 * rtt_s)
        assert ends[:401] == [start + 10 * rtt_s + k * rtt_s for k in range(401)]

    def test_validation(self):
        monitor = FakeMonitor([])
        with pytest.raises(ValueError):
            measure_stabilization(monitor, 0.0, -0.1, 0.05, 1.0)
        with pytest.raises(ValueError):
            measure_stabilization(monitor, 0.0, 0.1, 0.0, 1.0)


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_total_unfairness(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1.0])

    @given(
        st.one_of(
            st.lists(st.floats(0.001, 100), min_size=1, max_size=20),
            st.lists(
                st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=20,
            ),
        )
    )
    @example([1.6221031064129439] * 3)  # rounds to 1.0000000000000002 unclamped
    def test_bounds(self, rates):
        index = jain_index(rates)
        assert 0.0 <= index <= 1.0  # the Probability contract, exactly
        if all(0.001 <= r <= 100 for r in rates):  # nothing over- or underflows
            assert index >= 1.0 / len(rates) - 1e-9


class TestShares:
    def build_accountant(self):
        sim = Simulator()
        accountant = FlowAccountant(sim)

        def feed(flow, times):
            for t in times:
                sim.now = t  # direct clock manipulation for the fixture
                accountant.on_deliver(
                    Packet(flow, DATA, 0, 1000, 0, 1)
                )

        return sim, accountant, feed

    def test_normalized_shares(self):
        sim, accountant, feed = self.build_accountant()
        feed(0, [0.1 * i for i in range(1, 11)])  # 10 kB over ~1 s
        feed(1, [0.2 * i for i in range(1, 6)])  # 5 kB
        # As measure_oscillation normalizes: throughput over the fair share.
        shares = [accountant.throughput_bps(flow, 0.0, 1.01) / 80_000 for flow in (0, 1)]
        assert shares[0] == pytest.approx(1.0, rel=0.05)
        assert shares[1] == pytest.approx(0.5, rel=0.05)

    def test_convergence_time(self):
        sim, accountant, feed = self.build_accountant()
        # Flow 0 sends steadily; flow 1 ramps up at t = 2.
        feed(0, [0.05 * i for i in range(1, 100)])
        feed(1, [2.0 + 0.05 * i for i in range(1, 60)])
        t = delta_fair_convergence_time(
            accountant, 0, 1, start=0.0, end=5.0, delta=0.1, window_s=0.5
        )
        assert t is not None
        assert 2.0 <= t <= 3.5

    def test_convergence_never(self):
        sim, accountant, feed = self.build_accountant()
        feed(0, [0.05 * i for i in range(1, 100)])
        t = delta_fair_convergence_time(accountant, 0, 1, 0.0, 5.0)
        assert t is None


class TestFofK:
    def test_f_of_k_full_usage(self):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.0)
        monitor = LinkMonitor(sim)
        monitor.attach(link)
        monitor.record_departures()
        link.connect(lambda p: None)
        for seq in range(10):
            link.send(Packet(0, DATA, seq, 1000, 0, 1))
        sim.run()
        # Link busy for 10 s; over the first 4 "RTTs" of 1 s it is 100% used.
        assert f_of_k(monitor, 0.0, 4, 1.0) == pytest.approx(1.0)

    def test_validation(self):
        sim = Simulator()
        monitor = LinkMonitor(sim)
        with pytest.raises(ValueError):
            f_of_k(monitor, 0.0, 0, 1.0)


class TestSmoothness:
    def test_constant_rate_is_perfect(self):
        result = smoothness([10.0, 10.0, 10.0])
        assert result.min_ratio == 1.0
        assert result.cov == 0.0

    def test_tcp_like_sawtooth(self):
        # Rate halves once: min ratio 0.5 (the paper's 1 - b for b = 0.5).
        result = smoothness([10.0, 10.0, 5.0, 10.0])
        assert result.min_ratio == pytest.approx(0.5)

    def test_zero_transition_is_maximally_rough(self):
        result = smoothness([10.0, 0.0, 10.0])
        assert result.min_ratio == 0.0

    def test_all_zero_skipped(self):
        result = smoothness([0.0, 0.0, 0.0])
        assert result.min_ratio == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            smoothness([1.0])
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    @given(st.lists(st.floats(0.1, 1000), min_size=2, max_size=30))
    def test_ratio_bounds(self, rates):
        result = smoothness(rates)
        assert 0 < result.min_ratio <= 1.0

    @pytest.mark.parametrize("bin_s, start, end", [(0.2, 10.0, 60.0), (0.1, 0.0, 30.0)])
    def test_rate_bins_tile_the_window_to_its_last_bin(self, bin_s, start, end):
        # Edges summed t += bin_s drifted past 60.0 and lost the 250th
        # 0.2 s bin of (10, 60): the fine bins of Figs 17-19.
        edges = []

        class Edges:
            def throughput_bps(self, flow_id, lo, hi):
                edges.append((lo, hi))
                return 0.0

        assert len(rate_bins(Edges(), 0, bin_s, start, end)) == round((end - start) / bin_s)
        assert edges[0][0] == start and edges[-1][1] == end
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))

    def test_rate_bins_end_to_end(self):
        from repro.cc import establish, new_tcp_flow

        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        sender, sink = new_tcp_flow(sim)
        flow = establish(net, sender, sink)
        sender.start()
        sim.run(until=20.0)
        bins = rate_bins(net.accountant, flow, bin_s=0.5, start=5.0, end=20.0)
        assert len(bins) == 30
        assert all(b > 0 for b in bins)
