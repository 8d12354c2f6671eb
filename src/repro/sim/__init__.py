"""Discrete-event simulation kernel: clock, events, timers, RNG."""

from repro.sim.engine import Event, SimulationError, Simulator, Timer
from repro.sim.process import PeriodicTask
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Timer",
    "PeriodicTask",
    "RngRegistry",
]
