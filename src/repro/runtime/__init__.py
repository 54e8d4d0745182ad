"""Engine-agnostic runtime layer: the contract the protocol stack runs on.

``repro.runtime`` defines *what an engine is* (:mod:`repro.runtime.api`)
and ships three of them:

* :class:`SimRuntime` — the deterministic discrete-event engine
  (default; a thin adapter over ``repro.sim``);
* :class:`AsyncioRuntime` — wall-clock timers on an asyncio event loop
  with an in-memory asyncio message fabric;
* :class:`SocketRuntime` — the asyncio engine with a UDP
  :class:`SocketFabric`: remote destinations (per its address book) go
  over real sockets as :mod:`repro.net.wire` frames (docs/deployment.md).

Everything above this layer (processes, network, transport, membership,
broadcast, hierarchy, toolkit, workloads) is engine-agnostic; rule RL009
forbids ``repro.sim`` imports outside ``repro/sim/`` and
``repro/runtime/``.  :class:`~repro.sim.rand.SimRandom` — the seeded
deterministic random stream with labelled forking — is re-exported here
because it is part of the engine contract (every backend carries one),
not a simulator internal.

See docs/runtime.md for the contract and a guide to writing backends.
"""

from repro.runtime.api import (
    MessageFabric,
    PeriodicHandle,
    Runtime,
    TimerHandle,
    TimerService,
)
from repro.runtime.asyncio_backend import (
    AsyncioFabric,
    AsyncioRuntime,
    AsyncioTimers,
    WallClockError,
)
from repro.runtime.sim_backend import SimRuntime
from repro.runtime.socket_backend import SocketFabric, SocketRuntime, run_cluster
from repro.sim.rand import SimRandom

__all__ = [
    "AsyncioFabric",
    "AsyncioRuntime",
    "AsyncioTimers",
    "SocketFabric",
    "SocketRuntime",
    "run_cluster",
    "MessageFabric",
    "PeriodicHandle",
    "Runtime",
    "SimRandom",
    "SimRuntime",
    "TimerHandle",
    "TimerService",
    "WallClockError",
]
