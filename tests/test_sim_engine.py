"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
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
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
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
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestRunUntil:
    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 10.0

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        assert keep.time == 1.0

    def test_pending_tracks_pops_of_cancelled_events(self):
        sim = Simulator()
        fired = []
        dead = sim.schedule(1.0, fired.append, "dead")
        sim.schedule(2.0, fired.append, "live")
        dead.cancel()
        sim.run(until=1.5)
        assert fired == []
        assert sim.pending == 1
        sim.run()
        assert fired == ["live"]
        assert sim.pending == 0

    def test_cancel_after_firing_does_not_drift_the_counter(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        fired.cancel()  # no tombstone is left behind: it already popped
        assert sim.pending == 1

    def test_cancel_after_compaction_does_not_drift_the_counter(self):
        sim = Simulator()
        events = [sim.schedule(1.0 + i * 1e-3, lambda: None) for i in range(500)]
        for event in events[100:]:
            event.cancel()
        for event in events[100:]:
            event.cancel()  # double-cancel tombstones: harmless
        assert sim.pending == 100
        fired = []
        for event in events[:100]:
            event.fn = fired.append
            event.args = (event.time,)
        sim.run()
        assert len(fired) == 100
        assert fired == sorted(fired)
        assert sim.pending == 0

    def test_compaction_preserves_event_order(self):
        sim = Simulator()
        fired = []
        live = []
        for i in range(300):
            event = sim.schedule(1.0 + i * 1e-3, fired.append, i)
            if i % 3 == 0:
                live.append(i)
            else:
                event.cancel()
        sim.run()
        assert fired == live


class TestStop:
    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, lambda: sim.stop())
        sim.schedule(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 2.0


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

    def test_expiry_reports_absolute_time(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert timer.expiry is None
        timer.schedule(3.0)
        assert timer.expiry == 3.0

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
        for name in ("at", "schedule", "call_at", "call_in"):
            plain = getattr(sim, name)
            monkeypatch.setattr(
                sim, name, lambda *a, _plain=plain, _name=name: (calls.append(_name), _plain(*a))[1]
            )
        timer.schedule(5.0)
        timer.schedule(5.0)  # equal deadline: also no calendar work
        timer.schedule(7.0)
        assert calls == []
        assert sim.pending == 1
        assert timer.pending and timer.expiry == 7.0
        sim.run()
        assert fired == [7.0]
        assert calls == ["at"]  # the stale entry re-armed, once
        assert not timer.pending and timer.expiry is None

    def test_earlier_rearm_fires_at_the_earlier_time(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(5.0)
        timer.schedule(2.0)
        assert timer.expiry == 2.0
        assert sim.pending == 1  # the 5.0 entry was cancelled for real
        sim.run()
        assert fired == [2.0]
        assert sim.now == 2.0  # nothing live was left at 5.0

    def test_push_back_then_pull_forward_between_the_two(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.schedule(2.0)
        timer.schedule(9.0)
        timer.schedule(4.0)  # later than the entry at 2.0: still a field write
        assert sim.pending == 1
        sim.run()
        assert fired == [4.0]

    def test_cancel_after_push_back_leaves_no_live_entry(self):
        from tests.reference_kernel import ReferenceSimulator, ReferenceTimer

        def drive(sim, timer_cls):
            timer = timer_cls(sim, lambda: None)
            sim.schedule(1.0, lambda: None)
            timer.schedule(2.0)
            timer.schedule(5.0)
            timer.cancel()
            assert not timer.pending and timer.expiry is None
            assert sim.pending == 1
            sim.run()
            return sim.now

        assert drive(Simulator(), Timer) == drive(ReferenceSimulator(), ReferenceTimer) == 1.0

    def test_pending_is_false_inside_the_callback(self):
        sim = Simulator()
        seen = []
        timer = Timer(sim, lambda: seen.append((timer.pending, timer.expiry)))
        timer.schedule(1.0)
        timer.schedule(3.0)
        sim.run()
        assert seen == [(False, None)]

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_negative_and_nan_delays_rejected(self, armed, delay):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        if armed:
            timer.schedule(1.0)
        with pytest.raises(SimulationError):
            timer.schedule(delay)


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
                sim.schedule(delay, lambda d=delay: fired.append(d))
            sim.run()
            assert fired == sorted(delays)
            if delays:
                assert sim.now == max(delays)

        check()
