"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.at(3.0, fired.append, "c")
        sim.at(1.0, fired.append, "a")
        sim.at(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.at(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(4.0, fired.append, "x")
        sim.run()
        assert sim.now == 4.0 and fired == ["x"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(sim.now - 0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(float("nan"), lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.at(sim.now + 1.0, chain, n + 1)

        sim.at(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunUntil:
    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, fired.append, "early")
        sim.at(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, fired.append, "a")
        sim.at(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 10.0

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_nan_horizon_rejected_before_anything_fires(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, fired.append, t)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"))
        assert (fired, sim.now, sim.events_fired) == ([], 0.0, 0)
        sim.run()  # the rejected run left the kernel usable
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    """A :class:`Timer` is the one thing that cancels: it retires its entry,
    which stays in the calendar and returns at once when it pops."""

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append("x"))
        timer.schedule(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(1.0)
        timer.cancel()
        timer.cancel()
        timer.schedule(2.0)
        sim.run()
        assert fired == [2.0]

    def test_pending_tracks_pops_of_cancelled_events(self):
        sim = Simulator()
        fired = []
        dead = Timer(sim, lambda: fired.append("dead"))
        dead.schedule(1.0)
        sim.at(2.0, fired.append, "live")
        dead.cancel()
        sim.run(until=1.5)
        # The retired entry popped before the horizon: counted, not called.
        assert (fired, sim.events_fired, len(sim._heap)) == ([], 1, 1)
        sim.run()
        assert (fired, sim.events_fired, len(sim._heap)) == (["live"], 2, 0)

    def test_cancel_after_firing_does_not_drift_the_counter(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(1.0)
        sim.run(until=1.5)
        timer.cancel()  # already fired: nothing to retire
        assert not timer.pending
        timer.schedule(1.0)
        sim.run()
        assert fired == [1.0, 2.5]

    def test_compaction_preserves_event_order(self):
        sim = Simulator()
        fired = []
        live = []
        for i in range(300):
            timer = Timer(sim, lambda i=i: fired.append(i))
            timer.schedule(1.0 + i * 1e-3)
            if i % 3 == 0:
                live.append(i)
            else:
                timer.cancel()
        sim.run()
        assert fired == live
        assert sim.events_fired == 300  # the retired entries popped too


class TestTimer:
    def test_timer_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        sim.run()
        assert fired == [2.0]
        assert not timer.pending

    def test_reschedule_replaces_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        timer.schedule(5.0)
        sim.run()
        assert fired == [5.0]

    def test_cancel_disarms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_timer_restartable_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: None)

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.schedule(1.0)

        timer._fn = on_fire
        timer.schedule(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


    def test_push_back_is_a_field_write(self, monkeypatch):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        calls = []
        plain = sim.at
        monkeypatch.setattr(sim, "at", lambda *a: (calls.append(a[0]), plain(*a))[1])
        timer.schedule(5.0)
        timer.schedule(5.0)  # equal deadline: also no calendar work
        timer.schedule(7.0)
        assert calls == []
        assert len(sim._heap) == 1
        assert timer.pending
        sim.run()
        assert fired == [7.0]
        assert calls == [7.0]  # the stale entry re-armed, once
        assert not timer.pending

    def test_earlier_rearm_fires_at_the_earlier_time(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(5.0)
        timer.schedule(2.0)
        assert len(sim._heap) == 2  # the 5.0 entry is retired, not removed
        sim.run()
        assert fired == [2.0]
        # Without a horizon the clock stops at the last entry popped: the
        # retired one at 5.0, which called nothing.
        assert sim.now == 5.0 and sim.events_fired == 2

    def test_push_back_then_pull_forward_between_the_two(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        timer.schedule(9.0)
        timer.schedule(4.0)  # later than the entry at 2.0: still a field write
        assert len(sim._heap) == 1
        sim.run()
        assert fired == [4.0]

    def test_cancel_after_push_back_leaves_no_live_entry(self):
        from tests.reference_kernel import ReferenceSimulator, ReferenceTimer

        def drive(sim, timer_cls):
            fired = []
            timer = timer_cls(sim, lambda: fired.append(("timer", sim.now)))
            sim.at(1.0, lambda: fired.append(("event", sim.now)))
            timer.schedule(2.0)
            timer.schedule(5.0)
            timer.cancel()
            assert not timer.pending
            sim.run(until=10.0)
            return fired

        assert drive(Simulator(), Timer) == drive(ReferenceSimulator(), ReferenceTimer)

    def test_rearm_at_a_retired_entrys_time_fires_at_the_new_place(self):
        # Staleness is the token's, not the time's: the entry retired at
        # 5.0 sits ahead of the event at 5.0, the re-armed one behind it.
        from tests.reference_kernel import ReferenceSimulator, ReferenceTimer

        def drive(sim, timer_cls):
            order = []
            timer = timer_cls(sim, lambda: order.append("timer"))
            timer.schedule(5.0)
            sim.at(5.0, order.append, "event")
            timer.cancel()
            timer.schedule(5.0)
            pulled = timer_cls(sim, lambda: order.append("pulled"))
            pulled.schedule(5.0)
            sim.at(5.0, order.append, "event2")
            pulled.schedule(4.0)  # a pull-forward retires the 5.0 entry
            sim.at(4.0, pulled.schedule, 1.0)  # and re-arms at 5.0, behind event2
            sim.run()
            return order

        live = drive(Simulator(), Timer)
        assert live == drive(ReferenceSimulator(), ReferenceTimer)
        assert live == ["pulled", "event", "timer", "event2", "pulled"]

    def test_pending_is_false_inside_the_callback(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append((sim.now, timer.pending)))
        timer.schedule(1.0)
        timer.schedule(3.0)
        sim.run()
        assert seen == [(3.0, False)]

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_negative_and_nan_delays_rejected(self, armed, delay):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        if armed:
            timer.schedule(5.0)
        with pytest.raises(SimulationError):
            timer.schedule(delay)
        # Rejected before anything is retired: the timer is as it was.
        assert timer.pending == armed
        sim.run()
        assert fired == ([5.0] if armed else [])


class TestOrderingProperty:
    def test_random_schedules_fire_sorted(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.lists(st.floats(0, 1000, allow_nan=False), max_size=50))
        @settings(max_examples=50, deadline=None)
        def check(delays):
            sim = Simulator()
            fired = []
            for delay in delays:
                sim.at(delay, lambda d=delay: fired.append(d))
            sim.run()
            assert fired == sorted(delays)
            if delays:
                assert sim.now == max(delays)

        check()
