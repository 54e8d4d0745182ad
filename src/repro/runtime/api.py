"""The engine contract: what the protocol stack is allowed to assume.

Everything above this package — processes, the network, transport,
membership, broadcast, the hierarchy, the toolkit — programs against the
small surface defined here and nothing else.  The paper's design is an
*architecture* claim, not a simulator claim: ISIS ran on real
workstations.  Accordingly the group-communication stack is a library,
and an *engine* (a :class:`Runtime` backend) is just one host for it:

:class:`~repro.runtime.sim_backend.SimRuntime`
    The deterministic discrete-event engine (a thin adapter over
    :class:`repro.sim.scheduler.Scheduler`).  Frozen determinism digests
    and the BENCH_core.json perf numbers are defined on this backend.

:class:`~repro.runtime.asyncio_backend.AsyncioRuntime`
    Wall-clock timers on an asyncio event loop with an in-memory asyncio
    message fabric — the identical membership/broadcast/hierarchy code
    serves a live hierarchical service in real time.

The contract has three parts:

* :class:`TimerService` — the clock and timer API (``now``, ``at`` /
  ``after`` / ``at_call`` / ``after_call`` / ``after_call_once``
  returning cancellable :class:`TimerHandle` objects, and ``every``, the
  one handle a periodic timer holds for its whole life).
  ``Environment.scheduler`` is a ``TimerService``; under the sim backend
  it *is* the ``Scheduler`` instance, so the hot paths tuned in PR 1 pay
  nothing for the indirection.
* :class:`MessageFabric` — the hook the :class:`~repro.net.network.
  Network` binds to for deferred datagram delivery.  A fabric only needs
  ``now`` and ``at_call``; the socket fabric layers UDP transmission
  on top for envelopes bound to remote peers.
* :class:`Runtime` — the bundle an :class:`~repro.proc.env.Environment`
  is built from: ``timers`` + ``fabric`` + a deterministic seeded
  ``rng`` (fork children with ``rng.fork(label)``; one seed governs the
  entire run) + run control (``run``, ``run_for``).

Rule RL009 (tools/lint) enforces the boundary: no module outside
``repro/sim/`` and ``repro/runtime/`` may import ``repro.sim``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.rand import SimRandom


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable scheduled callback.

    ``cancel`` is idempotent and safe after firing.  ``time`` is the
    engine time the callback is (or was) due.
    """

    def cancel(self) -> None:  # pragma: no cover - protocol signature
        ...

    @property
    def cancelled(self) -> bool:  # pragma: no cover - protocol signature
        ...

    @property
    def time(self) -> float:  # pragma: no cover - protocol signature
        ...


@runtime_checkable
class TimerService(Protocol):
    """Clock + timers: the engine surface processes and protocols use.

    Time is a float in seconds.  Under the sim backend it is simulated
    time starting at 0; under the asyncio backend it is elapsed wall
    time since the runtime was created (scaled by ``time_scale``).  The
    ``*_call`` variants carry one argument alongside the callback so hot
    callers avoid allocating a closure per event; ``after_call_once``'s
    handle must not be touched once it fired or was cancelled.  ``every``
    returns one handle for a periodic timer's whole life, re-armed before
    each tick's call (docs/simulator.md, "Periodic ticks share a bucket").
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def at(self, time: float, fn: Callable[[], None]) -> TimerHandle:  # pragma: no cover
        ...

    def after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:  # pragma: no cover
        ...

    def at_call(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...

    def after_call(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...

    def after_call_once(
        self, delay: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...

    def every(self, interval: float, fn: Callable[[], None]) -> TimerHandle:  # pragma: no cover
        ...


@runtime_checkable
class MessageFabric(Protocol):
    """What the network binds to for deferred datagram delivery.

    The network computes a delivery deadline (send time + modelled
    latency) and hands the envelope to the fabric; the fabric invokes
    ``fn(arg)`` at that deadline.  The sim fabric *is* the scheduler,
    and the asyncio fabric the loop's timer service.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def at_call(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> TimerHandle:  # pragma: no cover - protocol signature
        ...


class Runtime(ABC):
    """One execution engine hosting a protocol stack.

    Concrete backends provide three attributes —

    ``timers``
        a :class:`TimerService` (exposed as ``Environment.scheduler``),
    ``fabric``
        a :class:`MessageFabric` the network binds to,
    ``rng``
        the run's root :class:`~repro.sim.rand.SimRandom`; subsystems
        and workloads fork labelled children (``rng.fork("network")``,
        ``rng.fork("workload/trading")``) so a single seed governs an
        entire run regardless of engine —

    plus the run-control methods below.
    """

    timers: TimerService
    fabric: MessageFabric
    rng: SimRandom

    @property
    def now(self) -> float:
        """Current engine time (seconds)."""
        return self.timers.now

    # -- run control ----------------------------------------------------------

    @abstractmethod
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Dispatch events until quiescent, or until engine time ``until``.

        ``max_events`` is a sim-only debugging bound; backends without a
        countable event stream reject it.
        """

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` seconds of engine time from now."""
        self.run(until=self.now + duration, max_events=max_events)

    def close(self) -> None:
        """Release engine resources; the runtime is unusable afterwards."""
