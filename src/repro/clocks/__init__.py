"""Logical clocks: vector clocks and the causal delivery buffer."""

from repro.clocks.causal_buffer import CausalBuffer
from repro.clocks.vector import VectorClock

__all__ = ["CausalBuffer", "VectorClock"]
