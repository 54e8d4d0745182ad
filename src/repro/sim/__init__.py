"""Discrete-event simulation kernel: scheduler, timers, deterministic RNG."""

from repro.sim.rand import SimRandom
from repro.sim.scheduler import EventHandle, Scheduler, SimulationError

__all__ = [
    "EventHandle",
    "Scheduler",
    "SimRandom",
    "SimulationError",
]
