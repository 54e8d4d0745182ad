"""Convenience constructors for group-based simulations.

Tests, benchmarks and examples all need the same scaffolding: an
environment, a set of processes each running a :class:`~repro.membership.
group.GroupRuntime`, and a group statically bootstrapped across them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.failure.detector import FailureDetector
from repro.membership.group import GroupMember, GroupRuntime
from repro.proc.env import Environment
from repro.proc.process import Process


class GroupNode(Process):
    """A workstation process running the group-communication stack.
    :meth:`recover` builds the next incarnation with the same options,
    so its stack is fresh, exactly as at start."""

    def __init__(
        self,
        env: Environment,
        address: str,
        detector_factory: Optional[Callable[["GroupNode"], FailureDetector]] = None,
        gossip_interval: Optional[float] = 1.0,
        flush_timeout: float = 1.0,
        rto: float = 0.05,
        primary_partition: bool = False,
    ) -> None:
        super().__init__(env, address)
        self._detector_factory = detector_factory
        self._options = dict(
            gossip_interval=gossip_interval,
            flush_timeout=flush_timeout,
            rto=rto,
            primary_partition=primary_partition,
        )
        detector = detector_factory(self) if detector_factory else None
        self.runtime = GroupRuntime(self, detector=detector, **self._options)

    def recover(self) -> "GroupNode":
        return type(self)(
            self.env, self.address, self._detector_factory, **self._options
        )


def build_group(
    env: Environment,
    name: str,
    size: int,
    prefix: Optional[str] = None,
    **node_kwargs,
) -> Tuple[List[GroupNode], List[GroupMember]]:
    """Create ``size`` nodes and statically bootstrap group ``name`` on them.

    Returns (nodes, members) in rank order: nodes[0] hosts the initial
    coordinator.
    """
    prefix = prefix if prefix is not None else name
    addresses = [f"{prefix}-{i}" for i in range(size)]
    nodes = [GroupNode(env, address, **node_kwargs) for address in addresses]
    members = [node.runtime.create_group(name, addresses) for node in nodes]
    return nodes, members
