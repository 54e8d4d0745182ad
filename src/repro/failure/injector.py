"""Crash injection for experiments.

The reliability experiments (E4, E7) crash processes at random times drawn
from a seeded stream; tests also use deterministic scripted crashes.  All
scheduling goes through the environment's scheduler so injection composes
with everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.net.message import Address
from repro.proc.env import Environment
from repro.runtime.api import SimRandom


@dataclass
class InjectionRecord:
    """What the injector did, for post-run analysis."""

    time: float
    address: Address
    action: str  # "crash" or "recover"


class CrashInjector:
    """Schedules crashes (and optional recoveries) against an environment.
    Each step looks its process up by address when it runs, so a step
    after a recovery acts on the successor."""

    def __init__(self, env: Environment, rng: Optional[SimRandom] = None) -> None:
        self._env = env
        self._rng = rng if rng is not None else env.rng.fork("crash-injector")
        self.records: List[InjectionRecord] = []

    # -- scripted ---------------------------------------------------------------

    def crash_at(self, time: float, address: Address) -> None:
        self._env.scheduler.at(time, lambda: self._crash(address))

    def recover_at(self, time: float, address: Address) -> None:
        self._env.scheduler.at(time, lambda: self._recover(address))

    # -- stochastic ---------------------------------------------------------------

    def poisson_crashes(
        self,
        addresses: Iterable[Address],
        rate_per_process: float,
        horizon: float,
        recover_after: Optional[float] = None,
    ) -> int:
        """Schedule memoryless crashes for each address over [now, now+horizon].

        ``rate_per_process`` is the expected number of crashes per process
        per unit time.  If ``recover_after`` is set, each crash is followed
        by a recovery that much later.  Returns the number of crash events
        scheduled.
        """
        if rate_per_process < 0 or horizon < 0:
            raise ValueError("rate and horizon must be nonnegative")
        scheduled = 0
        start = self._env.now
        for address in addresses:
            t = start
            while rate_per_process > 0:
                t += self._rng.expovariate(rate_per_process)
                if t > start + horizon:
                    break
                self.crash_at(t, address)
                scheduled += 1
                if recover_after is not None:
                    self.recover_at(t + recover_after, address)
                else:
                    break  # without recovery a process can only die once
        return scheduled

    def crash_fraction_at(
        self, time: float, addresses: Iterable[Address], fraction: float
    ) -> List[Address]:
        """At ``time``, crash a random ``fraction`` of ``addresses``."""
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        pool = list(addresses)
        count = int(round(len(pool) * fraction))
        victims = self._rng.sample(pool, count) if count else []
        for victim in victims:
            self.crash_at(time, victim)
        return victims

    # -- internals ---------------------------------------------------------------

    def _crash(self, address: Address) -> None:
        if self._env.has_process(address) and self._env.process(address).alive:
            self._env.process(address).crash()
            self.records.append(InjectionRecord(self._env.now, address, "crash"))

    def _recover(self, address: Address) -> None:
        if self._env.has_process(address) and not self._env.process(address).alive:
            self._env.process(address).recover()
            self.records.append(InjectionRecord(self._env.now, address, "recover"))
