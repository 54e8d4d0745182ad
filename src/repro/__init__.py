"""repro — hierarchical process groups for large-scale applications on
networks of workstations.

A from-scratch Python reproduction of Cooper & Birman (1989): the
virtually synchronous process-group substrate of ISIS (views, fbcast /
cbcast / abcast, the toolkit) plus the paper's contribution — large groups
organised as bounded leaf subgroups under a resilient group leader, with
tree-structured atomic broadcast.  The protocol stack is engine-agnostic
(:mod:`repro.runtime`): by default it runs on a deterministic
discrete-event simulator (:class:`SimRuntime`); pass
``Environment(runtime=AsyncioRuntime(...))`` and the same protocols run
live on wall-clock asyncio timers.

Quickstart::

    from repro import Environment, build_group, FIFO

    env = Environment(seed=1)
    nodes, members = build_group(env, "svc", 5)
    members[0].add_delivery_listener(lambda e: print("got", e.payload))
    members[2].multicast("hello", FIFO)
    env.run_for(1.0)

See ``examples/`` for the full tour and ``DESIGN.md`` for the system map.
"""

from repro.core.params import LargeGroupParams
from repro.membership.events import CAUSAL, FIFO, TOTAL
from repro.membership.service import GroupNode, build_group
from repro.net.latency import FixedLatency, LanLatency, UniformLatency
from repro.proc.env import Environment
from repro.runtime import AsyncioRuntime, SimRuntime

__version__ = "1.0.0"

__all__ = [
    "AsyncioRuntime",
    "CAUSAL",
    "Environment",
    "FIFO",
    "FixedLatency",
    "GroupNode",
    "LanLatency",
    "LargeGroupParams",
    "SimRuntime",
    "TOTAL",
    "UniformLatency",
    "build_group",
    "__version__",
]
