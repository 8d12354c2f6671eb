"""Tests for PeriodicTask (``sim/process.py``)."""

import pytest

from repro.sim import PeriodicTask, Simulator


class TestPeriodicTask:
    def test_ticks_at_interval(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 1.0, lambda: times.append(sim.now))
        task.start()
        sim.run(until=5.5)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert task.ticks == 5

    def test_stop_halts_ticking(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        task.start()
        sim.at(2.5, task.stop)
        sim.run(until=10.0)
        assert task.ticks == 2

    def test_stop_from_callback(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: task.stop())
        task.start()
        sim.run(until=10.0)
        assert task.ticks == 1

    def test_jitter_breaks_lockstep(self):
        import random

        sim = Simulator()
        times = []
        task = PeriodicTask(
            sim, 1.0, lambda: times.append(sim.now), jitter=0.5,
            rng=random.Random(3),
        )
        task.start()
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(1.0 <= g < 1.5 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1

    def test_start_idempotent(self):
        sim = Simulator()
        task = PeriodicTask(sim, 1.0, lambda: None)
        task.start()
        task.start()
        sim.run(until=3.5)
        assert task.ticks == 3

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=-1.0)
