"""Discrete-event simulation kernel: clock, timers, RNG."""

from repro.sim.engine import (
    SimulationError,
    Simulator,
    Timer,
    fired_in_process,
    simulated_ns_in_process,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "SimulationError",
    "Simulator",
    "Timer",
    "RngRegistry",
    "fired_in_process",
    "simulated_ns_in_process",
]
