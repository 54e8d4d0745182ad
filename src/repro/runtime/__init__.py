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

The wall-clock engines load on first attribute access (PEP 562), so a
simulated run never imports asyncio, socket, ssl or subprocess.

See docs/runtime.md for the contract and a guide to writing backends.
"""

import importlib

from repro.runtime.api import (
    MessageFabric,
    Runtime,
    TimerHandle,
    TimerService,
)
from repro.runtime.sim_backend import SimRuntime
from repro.sim.rand import SimRandom

_LAZY = {
    "AsyncioRuntime": "repro.runtime.asyncio_backend",
    "AsyncioTimers": "repro.runtime.asyncio_backend",
    "WallClockError": "repro.runtime.asyncio_backend",
    "SocketFabric": "repro.runtime.socket_backend",
    "SocketRuntime": "repro.runtime.socket_backend",
    "run_cluster": "repro.runtime.socket_backend",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value

__all__ = [
    "AsyncioRuntime",
    "AsyncioTimers",
    "SocketFabric",
    "SocketRuntime",
    "run_cluster",
    "MessageFabric",
    "Runtime",
    "SimRandom",
    "SimRuntime",
    "TimerHandle",
    "TimerService",
    "WallClockError",
]
