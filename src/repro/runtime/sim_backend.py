"""The discrete-event backend: a thin adapter over the PR-1 scheduler.

Zero behaviour change and zero hot-path cost by construction:

* ``timers`` and ``fabric`` are the :class:`~repro.sim.scheduler.
  Scheduler` instance *itself* — the network and per-process timers call
  the exact same bound methods (``at_call``, ``after_call``, ``every``)
  they called before the runtime layer existed, so the frozen
  determinism digests (tests/test_perf_determinism.py) and the
  BENCH_core.json numbers are definitionally unchanged.
* ``rng`` is constructed from the seed with no forks consumed, so the
  environment's ``rng.fork("network")`` remains fork #1 and every
  downstream seed derivation is bit-identical to the pre-runtime code.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.api import Runtime
from repro.sim.rand import SimRandom
from repro.sim.scheduler import Scheduler


class SimRuntime(Runtime):
    """Deterministic simulated-time engine over one :class:`Scheduler`."""

    def __init__(
        self,
        seed: int = 0,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        # The scheduler natively satisfies both engine protocols; exposing
        # it directly keeps the message/timer hot paths free of adapters.
        self.timers = self.scheduler
        self.fabric = self.scheduler
        self.rng = SimRandom(seed)

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.scheduler.run(until=until, max_events=max_events)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        self.scheduler.run_for(duration, max_events=max_events)
