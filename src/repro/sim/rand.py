"""Deterministic randomness for simulations.

All stochastic choices in the library (latency jitter, drop decisions,
workload inter-arrival times, failure injection) draw from a
:class:`SimRandom` owned by the environment, so a run is reproducible from
its seed alone — in any process, whatever its string-hash seed.
Subsystems that need independent streams fork child generators with
:meth:`SimRandom.fork`, which derives a new seed with a stable digest —
adding a new subsystem does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class SimRandom:
    """A seeded random stream with deterministic forking."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        # The generator's own bound method: a draw is a C call with no
        # Python frame (the network's jitter takes one per datagram).
        self.random = self._rng.random
        self._fork_count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str = "") -> "SimRandom":
        """Derive an independent child stream.

        The child seed is a blake2b digest of the parent seed, the fork
        index and ``label``: it never depends on how many numbers the
        parent has drawn, nor on the process's string-hash seed.
        """
        self._fork_count += 1
        key = f"{self._seed}/{self._fork_count}/{label}".encode()
        digest = hashlib.blake2b(key, digest_size=4).digest()
        child_seed = int.from_bytes(digest, "big") & 0x7FFFFFFF
        return SimRandom(child_seed)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(list(seq), k)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)
