"""Discrete-event simulation kernel: clock, events, timers, RNG."""

from repro.sim.engine import Event, SimulationError, Simulator, Timer
from repro.sim.rng import RngRegistry

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Timer",
    "RngRegistry",
]
