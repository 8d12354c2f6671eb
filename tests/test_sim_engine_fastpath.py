"""The fast-path kernel fires in exactly the pre-overhaul order.

The tuple-keyed calendar, its one entry shape and the ``Timer`` that
pushes its deadline back with a field write and retires the entries it
no longer wants are pure performance work: the observable contract —
events fire in ``(time, seq)`` order, a cancelled timer never calls its
callback, a timer fires at its latest deadline — must match the frozen
pre-overhaul kernel in ``tests/reference_kernel.py`` exactly.  These
tests drive random schedule / timer churn through both kernels and
compare the full firing transcripts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator, Timer
from tests.reference_kernel import ReferenceSimulator, ReferenceTimer

# One churn program = a list of instructions interpreted against a kernel:
#   ("at", time_fraction)        schedule at now + fraction * horizon
#   ("now", 0)                   schedule at exactly the current time
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
    calendar left the clock, and ``last`` the latest time anything was
    scheduled for.
    """
    transcript = []
    expiries = []
    times = [0.0]
    timer_cls = Timer if isinstance(sim, Simulator) else ReferenceTimer
    timers = [
        timer_cls(sim, lambda k=k: expiries.append((sim.now, k))) for k in range(_TIMERS)
    ]
    plain_at = sim.at

    def at(time, fn, *args):  # the timers' entries come through here too
        times.append(time)
        return plain_at(time, fn, *args)  # the reference timer keeps what it returns

    sim.at = at

    def fire(tag):
        transcript.append((sim.now, tag))

    def nested(tag, offset):
        transcript.append((sim.now, tag))
        sim.at(sim.now + offset, fire, f"{tag}.child")

    def arm(k, delay):
        timers[k].schedule(delay)
        assert timers[k].pending

    def disarm(k):
        timers[k].cancel()
        assert not timers[k].pending

    for i, (op, arg) in enumerate(program):
        if op == "at":
            sim.at(arg * horizon, fire, f"e{i}")
        elif op == "now":
            sim.at(sim.now, fire, f"e{i}")
        elif op == "nested":
            sim.at(arg * horizon, nested, f"e{i}", arg * 0.5)
        elif op == "timer":
            k, at_, delay = arg
            sim.at(at_ * horizon, arm, k, delay * horizon / 4)
        elif op == "disarm":
            k, at_ = arg
            sim.at(at_ * horizon, disarm, k)
    sim.run()
    return transcript, sorted(expiries), sim.now, max(times)


class TestOrderingOracle:
    @given(program=st.lists(_INSTRUCTION, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_transcripts_match_reference_kernel(self, program):
        *live, end, last = _run_program(Simulator(), program)
        *ref, ref_end, _ = _run_program(ReferenceSimulator(), program)
        assert live == ref
        # The reference clock drains at the last live entry; this one at
        # the last entry of all, which may be a retired timer entry.
        assert end == last >= ref_end


class TestHorizon:
    """``run(until=…)`` pops, then checks the horizon: the one entry past it
    goes back with its own ``(time, seq)``, so nothing can tell."""

    @staticmethod
    def _drive(sim, times, cancel, horizons):
        """Events at ``times``; a cancelled timer at each ``times[k]``."""
        transcript = []
        for i, t in enumerate(times):
            sim.at(t, lambda i=i: transcript.append((sim.now, i)))
        timer_cls = Timer if isinstance(sim, Simulator) else ReferenceTimer
        for k in cancel:
            timer = timer_cls(sim, lambda: transcript.append("cancelled timer fired"))
            timer.schedule(times[k % len(times)])
            timer.cancel()
        for until in horizons:
            sim.run(until=until)
            transcript.append(("ran", until, sim.now))
        sim.run()
        return transcript, sim.now

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
        live, end = self._drive(Simulator(), times, cancel, horizons)
        ref, ref_end = self._drive(ReferenceSimulator(), times, cancel, horizons)
        assert live == ref
        # Drained, the clock is at the last entry of all: retired ones too.
        assert end == max(times + horizons) >= ref_end

    def test_cancelled_entry_past_the_horizon_stays_counted(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, fired.append, "a")
        dead = Timer(sim, lambda: fired.append("dead"))
        dead.schedule(2.0)
        dead.cancel()
        sim.at(3.0, fired.append, "b")
        sim.run(until=1.5)
        # The retired entry at 2.0 was popped, found past 1.5 and pushed back.
        assert (fired, sim.now, sim.events_fired, len(sim._heap)) == (["a"], 1.5, 1, 2)
        sim.run()
        # Then it popped before the drained horizon: counted, not called.
        assert (fired, sim.now, sim.events_fired) == (["a", "b"], 3.0, 3)

    def test_event_past_the_horizon_keeps_its_place_among_equals(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.at(2.0, order.append, tag)
        sim.run(until=1.0)  # pops "a", pushes it back
        sim.at(2.0, order.append, "d")
        sim.run(until=2.0)  # events at exactly ``until`` fire
        assert order == ["a", "b", "c", "d"] and sim.now == 2.0
        sim.run(until=2.0)
        assert sim.now == 2.0 and sim.events_fired == 4


class TestCallInContract:
    """The fire-and-forget entry's contract, now held by ``Simulator.at``
    (plain entries) and ``Timer`` (relative delays)."""

    def test_call_at_fires_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(2.5, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 2.5

    def test_call_in_rejects_negative_delay_and_nan(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        with pytest.raises(SimulationError):
            timer.schedule(-0.1)
        with pytest.raises(SimulationError):
            timer.schedule(math.nan)
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)
        assert not timer.pending and sim._heap == []

    def test_call_at_rejects_past_times(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_events_fired_counts_both_entry_kinds(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, fired.append, "plain")
        Timer(sim, lambda: fired.append("timer")).schedule(2.0)
        cancelled = Timer(sim, lambda: fired.append("cancelled"))
        cancelled.schedule(3.0)
        cancelled.cancel()
        sim.run()
        # A plain entry and a timer's entry are both counted; so is the
        # retired entry the cancelled timer left, popped but not called.
        assert fired == ["plain", "timer"] and sim.events_fired == 3


class TestAtContract:
    def test_an_entry_made_at_now_fires_after_its_equals(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: (order.append("a"), sim.at(sim.now, order.append, "c")))
        sim.at(1.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]
