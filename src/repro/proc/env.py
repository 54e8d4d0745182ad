"""The cluster environment: one engine + network + process registry.

An :class:`Environment` bundles a :class:`~repro.runtime.api.Runtime`
(clock, timers, seeded RNG, message fabric), the network and the process
registry — one per run.  It is the single object tests, benchmarks and
services construct::

    env = Environment(seed=7)                 # discrete-event (default)
    members = [Worker(env, f"w{i}") for i in range(5)]
    env.run_for(2.0)

The engine is pluggable: pass ``runtime=AsyncioRuntime(...)`` and the
identical protocol stack runs on wall-clock time instead of simulated
time (see docs/runtime.md).  ``env.scheduler`` is the engine's
:class:`~repro.runtime.api.TimerService` — under the default sim backend
it *is* the :class:`~repro.sim.scheduler.Scheduler`, so existing callers
(and the PR-1 hot paths) are untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, TYPE_CHECKING

from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.stats import StatsSnapshot
from repro.runtime.api import Runtime
from repro.runtime.sim_backend import SimRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.proc.process import Process


class Environment:
    """Engine + network + RNG + process registry for one run."""

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        hardware_multicast: bool = False,
        runtime: Optional[Runtime] = None,
    ) -> None:
        # ``seed`` feeds the default sim engine; an explicitly supplied
        # runtime brings its own root RNG (one seed per run, regardless
        # of engine).
        self.runtime = runtime if runtime is not None else SimRuntime(seed)
        self.rng = self.runtime.rng
        # The engine's TimerService.  Kept under the historical name:
        # every layer reaches timers through ``env.scheduler``, and under
        # SimRuntime this is literally the Scheduler instance.
        self.scheduler = self.runtime.timers
        self.network = Network(
            self.scheduler,
            self.rng.fork("network"),
            latency=latency,
            drop_probability=drop_probability,
            duplicate_probability=duplicate_probability,
            hardware_multicast=hardware_multicast,
            fabric=self.runtime.fabric,
        )
        # A deployment fabric (the socket backend) needs the network for
        # its receive path — inbound frames enter the normal delivery
        # pipeline — and for counting codec failures as datagram drops.
        # Duck-typed so this layer stays ignorant of engine internals.
        bind_network = getattr(self.runtime.fabric, "bind_network", None)
        if bind_network is not None:
            bind_network(self.network)
        self._processes: Dict[str, "Process"] = {}
        self._crash_listeners: list = []

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.runtime.run(until=until, max_events=max_events)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        self.runtime.run_for(duration, max_events=max_events)

    # -- processes -------------------------------------------------------------

    def add_process(self, process: "Process") -> None:
        if process.address in self._processes:
            raise ValueError(f"duplicate process address {process.address!r}")
        self._processes[process.address] = process

    def remove_process(self, address: str) -> None:
        self._processes.pop(address, None)

    def process(self, address: str) -> "Process":
        return self._processes[address]

    def has_process(self, address: str) -> bool:
        return address in self._processes

    @property
    def processes(self) -> Iterable["Process"]:
        return list(self._processes.values())

    def live_addresses(self) -> list:
        return [a for a, p in self._processes.items() if p.alive]

    def crash(self, address: str) -> None:
        """Crash the process at ``address`` (no-op if unknown or dead)."""
        process = self._processes.get(address)
        if process is not None and process.alive:
            process.crash()

    def on_crash(self, listener) -> None:
        """Register ``listener(address)`` to run whenever a process crashes.

        This is harness scaffolding (used by the oracle failure detector
        and test assertions), not a network facility.
        """
        self._crash_listeners.append(listener)

    def notify_crash(self, address: str) -> None:
        for listener in list(self._crash_listeners):
            listener(address)

    # -- measurement ---------------------------------------------------------

    def stats_snapshot(self) -> StatsSnapshot:
        return self.network.stats.snapshot()

    def stats_since(self, before: StatsSnapshot) -> StatsSnapshot:
        return self.network.stats.since(before)
