"""The fast-path kernel fires in exactly the pre-overhaul order.

The tuple-keyed calendar, the fire-and-forget ``call_in``/``call_at``
entries and the lazily pushed-back ``Timer`` are pure performance work:
the observable contract — events fire in ``(time, seq)`` order,
cancelled events never fire, a timer fires at its latest deadline —
must match the frozen pre-overhaul kernel in
``tests/reference_kernel.py`` exactly.  These tests drive random
schedule / cancel / timer churn through both kernels and compare the
full firing transcripts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, Timer
from tests.reference_kernel import ReferenceSimulator, ReferenceTimer

# One churn program = a list of instructions interpreted against a kernel:
#   ("at", time_fraction)        schedule at now + fraction * horizon
#   ("now", 0)                   schedule at exactly the current time
#   ("cancel", k)                cancel the k-th not-yet-cancelled event
#   ("nested", time_fraction)    the scheduled callback schedules another
#   ("timer", (k, at, delay))    at at * horizon, (re)arm timer k for
#                                delay * horizon / 4 — pushes back, pulls
#                                forward or re-arms, as the numbers fall
#   ("disarm", (k, at))          at at * horizon, cancel timer k
_FRACTION = st.floats(0.0, 1.0, allow_nan=False)
_TIMERS = 3
_INSTRUCTION = st.one_of(
    st.tuples(st.just("at"), _FRACTION),
    st.tuples(st.just("now"), st.just(0.0)),
    st.tuples(st.just("cancel"), st.integers(0, 1000)),
    st.tuples(st.just("nested"), _FRACTION),
    st.tuples(st.just("timer"), st.tuples(st.integers(0, _TIMERS - 1), _FRACTION, _FRACTION)),
    st.tuples(st.just("disarm"), st.tuples(st.integers(0, _TIMERS - 1), _FRACTION)),
)


def _run_program(sim, program, horizon=100.0):
    """Interpret a churn program; returns ``(events, timers, end)``.

    ``events`` is the firing transcript of the plain events, in order.
    Timer expiries are kept apart, as a sorted list: a pushed-back timer
    fires at the same *time* as the reference one, but among events of
    that very instant it goes by when its entry was last re-made, so only
    its time is part of the contract.  ``end`` is where the drained
    calendar left the clock.
    """
    transcript = []
    expiries = []
    events = []
    timer_cls = Timer if isinstance(sim, Simulator) else ReferenceTimer
    timers = [
        timer_cls(sim, lambda k=k: expiries.append((sim.now, k))) for k in range(_TIMERS)
    ]

    def fire(tag):
        transcript.append((sim.now, tag))

    def nested(tag, offset):
        transcript.append((sim.now, tag))
        events.append(sim.at(sim.now + offset, fire, f"{tag}.child"))

    def arm(k, delay):
        timers[k].schedule(delay)
        assert timers[k].pending and timers[k].expiry == sim.now + delay

    def disarm(k):
        timers[k].cancel()
        assert not timers[k].pending and timers[k].expiry is None

    for i, (op, arg) in enumerate(program):
        if op == "at":
            events.append(sim.at(arg * horizon, fire, f"e{i}"))
        elif op == "now":
            events.append(sim.at(sim.now, fire, f"e{i}"))
        elif op == "cancel":
            live = [e for e in events if not e.cancelled]
            if live:
                live[int(arg) % len(live)].cancel()
        elif op == "nested":
            events.append(sim.at(arg * horizon, nested, f"e{i}", arg * 0.5))
        elif op == "timer":
            k, at, delay = arg
            sim.at(at * horizon, arm, k, delay * horizon / 4)
        elif op == "disarm":
            k, at = arg
            sim.at(at * horizon, disarm, k)
    sim.run()
    return transcript, sorted(expiries), sim.now


class TestOrderingOracle:
    @given(program=st.lists(_INSTRUCTION, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_transcripts_match_reference_kernel(self, program):
        live = _run_program(Simulator(), program)
        ref = _run_program(ReferenceSimulator(), program)
        assert live == ref

    @given(
        deltas=st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=40),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_call_in_interleaves_with_events_in_seq_order(self, deltas, data):
        # Mixing cancellable at() events and fire-and-forget call_in
        # entries must preserve the global (time, seq) order: both draw
        # seq from the same counter.  The reference kernel has no
        # call_in, so the oracle is plain schedule() there.
        choices = [data.draw(st.booleans()) for _ in deltas]

        def drive(sim, fire_and_forget):
            transcript = []
            for i, (delta, cheap) in enumerate(zip(deltas, choices)):
                record = lambda i=i: transcript.append((sim.now, i))
                if cheap and fire_and_forget:
                    sim.call_in(delta, record)
                else:
                    sim.schedule(delta, record)
            sim.run()
            return transcript

        assert drive(Simulator(), True) == drive(ReferenceSimulator(), False)


class TestHorizon:
    """``run(until=…)`` pops, then checks the horizon: the one entry past it
    goes back with its own ``(time, seq)``, so nothing can tell."""

    @staticmethod
    def _drive(sim, times, cancel, horizons):
        transcript = []
        events = [
            sim.at(t, lambda i=i: transcript.append((sim.now, i)))
            for i, t in enumerate(times)
        ]
        for k in cancel:
            events[k % len(events)].cancel()
        for until in horizons:
            sim.run(until=until)
            transcript.append(("ran", until, sim.now, sim.pending))
        sim.run()
        return transcript, sim.now, sim.pending

    @given(
        times=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=30),
        cancel=st.lists(st.integers(0, 1000), max_size=10),
        horizons=st.lists(st.floats(0.0, 12.0, allow_nan=False), max_size=4).map(sorted),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_back_to_back_runs_match_reference_kernel(self, times, cancel, horizons, data):
        if data.draw(st.booleans()):
            horizons = sorted(horizons + [data.draw(st.sampled_from(times))])  # exactly at an event
        live = self._drive(Simulator(), times, cancel, horizons)
        assert live == self._drive(ReferenceSimulator(), times, cancel, horizons)

    def test_cancelled_entry_past_the_horizon_stays_counted(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "dead").cancel()
        sim.call_at(3.0, fired.append, "b")
        sim.run(until=1.5)
        # The tombstone at 2.0 was popped, found past 1.5 and pushed back.
        assert (fired, sim.now, sim.pending, len(sim._heap)) == (["a"], 1.5, 1, 2)
        sim.run()
        assert (fired, sim.now, sim.pending, sim.events_fired) == (["a", "b"], 3.0, 0, 2)

    def test_event_past_the_horizon_keeps_its_place_among_equals(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.call_at(2.0, order.append, tag)
        sim.run(until=1.0)  # pops "a", pushes it back
        sim.call_at(2.0, order.append, "d")
        sim.run(until=2.0)  # events at exactly ``until`` fire
        assert order == ["a", "b", "c", "d"] and sim.now == 2.0
        sim.run(until=2.0)
        assert sim.now == 2.0 and sim.events_fired == 4


class TestCallInContract:
    def test_call_at_fires_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 2.5

    def test_call_in_rejects_negative_delay_and_nan(self):
        import math

        from repro.sim.engine import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_in(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_in(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(math.nan, lambda: None)

    def test_call_at_rejects_past_times(self):
        from repro.sim.engine import SimulationError

        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_call_in_same_time_fires_in_fifo_order(self):
        sim = Simulator()
        order = []
        sim.call_at(1.0, lambda: (order.append("a"), sim.call_in(0.0, order.append, "c")))
        sim.call_at(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_pending_counts_fire_and_forget_entries(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        event.cancel()
        assert sim.pending == 1

    def test_events_fired_counts_both_entry_kinds(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        cancelled = sim.schedule(3.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_fired == 2
