"""Per-partition backend for the conservative-window parallel engine.

A :class:`ParallelRuntime` is a :class:`~repro.runtime.sim_backend.
SimRuntime` whose fabric is a :class:`PartitionFabric`: the scheduler
still runs the partition's own heap, but any envelope addressed to a
node owned by *another* partition is captured into an outbox instead of
being scheduled locally.  The engine (:mod:`repro.sim.parallel`) drains
the outbox at every window barrier, ships the envelopes through the
PR-8 wire codec, and re-injects them on the owning partition — so the
fabric is the single seam between "this partition's discrete-event
world" and "everything across the barrier".

The capture test mirrors :class:`~repro.runtime.socket_backend.
SocketFabric` exactly — ``arg.__class__ is Envelope`` with a remote
destination — so sim, socket and parallel backends intercept at the
identical point in the network's send path.  Everything else (timers,
local deliveries) delegates to the scheduler unchanged, including the
grouped same-timestamp bucket path, which keeps local batched dispatch —
and therefore the frozen per-partition delivery digests — byte-identical
to a plain serial run of the same partition slice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.message import Address, Envelope
from repro.runtime.sim_backend import SimRuntime
from repro.sim.scheduler import Scheduler


class PartitionFabric:
    """:class:`~repro.runtime.api.MessageFabric` over one partition's
    scheduler, with cross-partition capture at the window boundary."""

    def __init__(
        self,
        scheduler: Scheduler,
        partition: int,
        owners: Dict[Address, int],
    ) -> None:
        self._scheduler = scheduler
        self.partition = partition
        # Address book: logical address -> owning partition.  Local
        # addresses are exactly the ones mapped to ``partition`` (an
        # unmapped address counts as local, so the network's own
        # unknown-destination drop path stays in charge of it).
        self._owners = owners
        self._network = None  # bound by Environment via bind_network()
        self._outbox: List[Envelope] = []
        self.captured = 0  # envelopes captured for other partitions
        self.injected = 0  # envelopes injected from other partitions

    # -- wiring --------------------------------------------------------------

    def bind_network(self, network: Any) -> None:
        """Attach the partition's Network (inbound delivery + recycling).
        Called by Environment, exactly like the socket fabric."""
        self._network = network

    @property
    def network(self) -> Any:
        return self._network

    def _is_remote(self, dst: Address) -> bool:
        return self._owners.get(dst, self.partition) != self.partition

    # -- MessageFabric contract ----------------------------------------------

    @property
    def now(self) -> float:
        return self._scheduler.now

    def at_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> Any:
        if arg.__class__ is Envelope and self._is_remote(arg.dst):
            self._outbox.append(arg)
            self.captured += 1
            return None
        return self._scheduler.at_call(time, fn, arg)

    def at_call_grouped(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """The network's batched-dispatch path: local deliveries keep the
        scheduler's same-timestamp bucket (and its exact FIFO order);
        remote ones are captured before any event exists for them."""
        if arg.__class__ is Envelope and self._is_remote(arg.dst):
            self._outbox.append(arg)
            self.captured += 1
            return
        self._scheduler.at_call_grouped(time, fn, arg)

    # -- window-barrier seam -------------------------------------------------

    def take_outbox(self) -> List[Envelope]:
        """Drain captured envelopes, in capture order.  The caller owns
        them until it recycles them back via :meth:`recycle`."""
        outbox, self._outbox = self._outbox, []
        return outbox

    def recycle(self, envelopes: List[Envelope]) -> None:
        """Return encoded-and-shipped envelopes to the network's free
        list, so steady-state capture allocates nothing."""
        network = self._network
        if network is None:
            return
        recycle = network._recycle
        for envelope in envelopes:
            recycle(envelope)

    def inject(self, deliver_time: float, envelope: Envelope) -> None:
        """Schedule one decoded inbound envelope for delivery on this
        partition at its original deadline (always in the next window,
        so never in the scheduler's past)."""
        network = self._network
        if network is None:
            raise RuntimeError("inject before bind_network")
        self.injected += 1
        self._scheduler.at_call_once(
            deliver_time, network.deliver_inbound, envelope
        )

    def stats(self) -> Dict[str, int]:
        return {
            "captured": self.captured,
            "injected": self.injected,
            "outbox": len(self._outbox),
        }


class ParallelRuntime(SimRuntime):
    """One partition's engine inside a parallel run.

    Identical to :class:`SimRuntime` — same scheduler, same rng
    derivation, so a partition's heap behaves exactly as it would
    single-process — except ``fabric`` is the capturing
    :class:`PartitionFabric` instead of the scheduler itself.
    """

    def __init__(
        self,
        seed: int = 0,
        partition: int = 0,
        owners: Optional[Dict[Address, int]] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        super().__init__(seed=seed, scheduler=scheduler)
        self.fabric = PartitionFabric(self.scheduler, partition, owners or {})
