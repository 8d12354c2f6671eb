"""Unit tests for RNG streams, time series and counter window edges."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import RngRegistry
from repro.telemetry import CounterProbe, TimeSeries


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(42)
        assert reg.stream("red") is reg.stream("red")

    def test_reproducible_across_registries(self):
        a = RngRegistry(42).stream("red")
        b = RngRegistry(42).stream("red")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        reg = RngRegistry(42)
        xs = [reg.stream("a").random() for _ in range(5)]
        ys = [reg.stream("b").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_differ(self):
        xs = [RngRegistry(1).stream("x").random() for _ in range(5)]
        ys = [RngRegistry(2).stream("x").random() for _ in range(5)]
        assert xs != ys

    def test_spawn_changes_seed_deterministically(self):
        a = RngRegistry(7).spawn(3)
        b = RngRegistry(7).spawn(3)
        assert a.master_seed == b.master_seed != 7


class TestRngRegistryProperties:
    """Replica registries and named streams must never collide.

    ``spawn(salt)`` hands each replicate its own universe of streams and
    ``stream(name)`` hands each component its own sequence; a collision
    in either silently correlates two supposedly independent random
    sources, which biases every statistic built on replication.
    """

    @given(
        master=st.integers(min_value=0, max_value=2**31 - 1),
        salts=st.lists(
            st.integers(min_value=0, max_value=2**20),
            min_size=2,
            max_size=8,
            unique=True,
        ),
    )
    def test_distinct_salts_never_collide(self, master, salts):
        parent = RngRegistry(master)
        spawned = [parent.spawn(salt) for salt in salts]
        seeds = [reg.master_seed for reg in spawned]
        assert len(set(seeds)) == len(seeds)
        # ... and the derived streams start from distinct states too.
        states = [reg.stream("flow.0").getstate() for reg in spawned]
        assert len(set(states)) == len(states)

    @given(
        master=st.integers(min_value=0, max_value=2**31 - 1),
        names=st.lists(
            st.text(min_size=1, max_size=24), min_size=2, max_size=8, unique=True
        ),
    )
    def test_distinct_stream_names_never_collide(self, master, names):
        reg = RngRegistry(master)
        states = [reg.stream(name).getstate() for name in names]
        assert len(set(states)) == len(states)

    @given(
        master=st.integers(min_value=0, max_value=2**31 - 1),
        salt=st.integers(min_value=0, max_value=2**20),
    )
    def test_spawn_never_returns_the_parent_universe(self, master, salt):
        parent = RngRegistry(master)
        child = parent.spawn(salt)
        assert child.master_seed != parent.master_seed
        assert (
            child.stream("flow.0").getstate()
            != parent.stream("flow.0").getstate()
        )


class TestTimeSeries:
    def test_append_and_iterate(self):
        ts = TimeSeries("x")
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        assert list(ts) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(ts) == 2

    def test_out_of_order_append_rejected(self):
        ts = TimeSeries()
        ts.append(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(1.0, 1.0)

    def test_equal_time_appends_allowed(self):
        ts = TimeSeries()
        ts.append(1.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_window_half_open(self):
        ts = TimeSeries()
        for t in range(5):
            ts.append(float(t), float(t))
        win = ts.window(1.0, 3.0)
        assert list(win.times) == [1.0, 2.0]

    def test_mean_and_max(self):
        ts = TimeSeries()
        for v in (1.0, 2.0, 6.0):
            ts.append(v, v)
        assert ts.mean() == 3.0
        assert ts.max() == 6.0

    def test_mean_of_empty_is_nan(self):
        assert math.isnan(TimeSeries().mean())

    def test_last_before(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert ts.last_before(0.5) is None
        assert ts.last_before(1.0) == 10.0
        assert ts.last_before(1.5) == 10.0
        assert ts.last_before(10.0) == 20.0

    def test_resample_sample_and_hold(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(1.0, 5.0)
        out = ts.resample(0.5, 0.0, 2.0)
        assert list(out) == [(0.0, 1.0), (0.5, 1.0), (1.0, 5.0), (1.5, 5.0)]

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    def test_window_never_widens(self, raw_times):
        times = sorted(raw_times)
        ts = TimeSeries()
        for t in times:
            ts.append(t, t)
        win = ts.window(10.0, 60.0)
        assert all(10.0 <= t < 60.0 for t in win.times)
        assert len(win) == sum(1 for t in times if 10.0 <= t < 60.0)


class TestCounter:
    """Counter windows are half-open ``[start, end)``.

    One convention applies everywhere (probes, link monitor, series
    windows), and these tests pin both boundary edges.
    """

    def test_count_in_window(self):
        c = CounterProbe()
        c.increment(1.0)
        c.increment(2.0)
        c.increment(3.0)
        assert c.count == 3
        assert c.count_in(0.0, 1.5) == 1
        assert c.count_in(1.5, 3.0) == 1  # t=3.0 excluded, half-open
        assert c.count_in(1.5, 3.5) == 2

    def test_start_boundary_included(self):
        c = CounterProbe()
        c.increment(1.0)
        assert c.count_in(1.0, 2.0) == 1  # closed-left: t=start counts

    def test_end_boundary_excluded(self):
        c = CounterProbe()
        c.increment(2.0)
        assert c.count_in(1.0, 2.0) == 0  # open-right: t=end does not

    def test_adjacent_windows_tile_without_double_count(self):
        c = CounterProbe()
        for t in (0.0, 1.0, 1.5, 2.0, 3.0):
            c.increment(t)
        total = c.count_in(0.0, 2.0) + c.count_in(2.0, 4.0)
        assert total == c.count_in(0.0, 4.0) == 5
