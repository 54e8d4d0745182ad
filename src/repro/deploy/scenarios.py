"""Deployment parity scenarios: one definition, every engine.

A scenario is a deterministic plan — logical addresses, who owns which
address at a given node count, and a schedule of absolute logical times
(group bootstrap, staggered joins, traffic bursts).  The same plan runs:

* as the **sim reference** — one Environment owning every address;
* as an **in-process loopback cluster** — N SocketRuntimes on one event
  loop (:class:`repro.deploy.cluster.LoopbackCluster`);
* as a **real deployment** — one slice per OS process
  (:mod:`repro.deploy.launcher`).

Because every schedule entry is an absolute logical time and each node's
logical clock starts at the tracker's barrier release, cross-node skew
(milliseconds of wall time) stays far inside the scheduled gaps (the
hierarchical join stagger is 0.2 *logical* seconds — 50 ms of wall time
at the default ``time_scale=0.25``), so placement and view sequences are
engine-independent; per-sender delivery order is protocol-enforced and
needs no timing argument at all.

Only protocol-guaranteed outcomes are compared (:meth:`check`): final
views, leaf placement, per-sender delivery sequences.  Global
interleaving across senders is explicitly *not* — the wall clock races
the OS (see tests/test_runtime_parity.py).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core import LargeGroupParams, ReorgPolicy, build_leader_group
from repro.core.hierarchy import LargeGroupMember
from repro.membership import CAUSAL, FIFO, TOTAL
from repro.membership.service import GroupNode
from repro.metrics.sanitizer import install_sanitizer
from repro.net.latency import FixedLatency

# Every plan runs the parity suite's LAN model.
LATENCY = FixedLatency(0.002)
DEFAULT_TIME_SCALE = 0.25

_ORDERINGS = (FIFO, CAUSAL, TOTAL)


def per_sender(log: Iterable[Tuple[str, Any]]) -> Dict[str, List[Any]]:
    """Collapse a receiver's delivery log to {sender: [payloads]}."""
    out: Dict[str, List[Any]] = {}
    for sender, payload in log:
        out.setdefault(sender, []).append(payload)
    return out


class _Slice:
    """One node's share of a scenario: local members, logs, sanitizer."""

    def __init__(self) -> None:
        self.members: List[Any] = []
        self.logs: Dict[str, List[Tuple[str, Any]]] = {}
        self.sanitizer = None

    def _record(self, me: str):
        log = self.logs[me] = []
        return lambda event: log.append((event.sender, event.payload))

    def counters(self) -> Dict[str, int]:
        if self.sanitizer is None:
            return {}
        return dict(self.sanitizer.check(at_quiescence=True))


class FlatScenario:
    """A flat group, one burst per member across all three orderings."""

    name = "flat"
    group = "g"
    seed = 7
    latency = LATENCY

    def __init__(self, members: int = 4) -> None:
        if members < 3:
            raise ValueError("flat parity needs at least 3 members")
        self.members = members

    # -- plan ----------------------------------------------------------------

    @property
    def duration(self) -> float:
        # Last burst starts at 0.10 + 0.05*(members-1); generous settle.
        return 0.10 + 0.05 * self.members + 1.75

    def addresses(self) -> List[str]:
        return [f"{self.group}-{i}" for i in range(self.members)]

    def owners(self, nodes: int) -> Dict[str, int]:
        """Round-robin: address i lives on OS process i % nodes."""
        return {
            address: i % nodes for i, address in enumerate(self.addresses())
        }

    # -- execution -----------------------------------------------------------

    def build(self, env, local: Iterable[str]) -> _Slice:
        """Create this node's members and schedule its share of the plan
        (absolute logical times; call with ``env.now == 0``)."""
        local_set = set(local)
        addresses = self.addresses()
        state = _Slice()
        by_address = {}
        for address in addresses:
            if address not in local_set:
                continue
            node = GroupNode(env, address)
            member = node.runtime.create_group(self.group, addresses)
            state.members.append(member)
            by_address[address] = member
            member.add_delivery_listener(state._record(address))
        state.sanitizer = install_sanitizer(state.members)
        for i, address in enumerate(addresses):
            member = by_address.get(address)
            if member is None:
                continue
            ordering = _ORDERINGS[i % 3]
            payloads = tuple(f"{address}/m{j}" for j in range(2 + (i == 0)))

            def burst(member=member, ordering=ordering, payloads=payloads):
                for payload in payloads:
                    member.multicast(payload, ordering)

            env.scheduler.at(0.10 + 0.05 * i, burst)
        return state

    def results(self, state: _Slice) -> Dict[str, Any]:
        return {
            "views": {m.me: tuple(m.members) for m in state.members},
            "seqs": {me: per_sender(log) for me, log in state.logs.items()},
            "counters": state.counters(),
        }

    # -- parity --------------------------------------------------------------

    def check(self, reference: Dict, live: Dict) -> List[str]:
        errors = []
        if reference["views"] != live["views"]:
            errors.append(
                f"views diverge: sim {reference['views']!r} "
                f"!= live {live['views']!r}"
            )
        if len(live["views"]) != self.members:
            errors.append(
                f"live run reported {len(live['views'])}/{self.members} members"
            )
        if reference["seqs"] != live["seqs"]:
            errors.append(
                f"per-sender delivery sequences diverge: "
                f"sim {reference['seqs']!r} != live {live['seqs']!r}"
            )
        return errors


class HierScenario:
    """A hierarchical service: static leaders that stay together on one
    node, staggered worker joins, one leaf burst from the first and last
    worker."""

    name = "hier"
    service = "svc"
    seed = 11
    latency = LATENCY
    join_stagger = 0.2

    def __init__(
        self, workers: int = 6, reorg: Optional[ReorgPolicy] = None
    ) -> None:
        if workers < 2:
            raise ValueError("hier parity needs at least 2 workers")
        self.workers = workers
        # The optional reorg knob: a load-driven policy turns on leaf
        # load reporting and rate-triggered splits/merges on every
        # engine this scenario runs on; the default stays the frozen
        # size-only policy.
        self.params = LargeGroupParams(
            resiliency=2,
            fanout=3,
            reorg=reorg if reorg is not None else ReorgPolicy(),
        )
        self.leaders = self.params.leader_group_size

    # -- plan ----------------------------------------------------------------

    @property
    def place_time(self) -> float:
        """When placement must have settled: all joins done + slack for
        assignment RPCs, leaf flushes and any split reorganisation."""
        return self.join_stagger * self.workers + 2.8

    @property
    def duration(self) -> float:
        return self.place_time + 3.0

    def leader_addresses(self) -> Tuple[str, ...]:
        return tuple(f"{self.service}-ldr-{i}" for i in range(self.leaders))

    def worker_addresses(self) -> List[str]:
        return [f"{self.service}-w-{i}" for i in range(self.workers)]

    def addresses(self) -> List[str]:
        return list(self.leader_addresses()) + self.worker_addresses()

    def owners(self, nodes: int) -> Dict[str, int]:
        """Leaders stay together on node 0; workers round-robin across
        the remaining nodes."""
        owners = {address: 0 for address in self.leader_addresses()}
        for i, address in enumerate(self.worker_addresses()):
            owners[address] = (i % (nodes - 1)) + 1 if nodes > 1 else 0
        return owners

    # -- execution -----------------------------------------------------------

    def _hosts_leaders(self, local_set) -> bool:
        """Whether this node builds the leader tier (all of it or none:
        the leader subgroup is one statically bootstrapped group)."""
        leader_addresses = self.leader_addresses()
        if not local_set.intersection(leader_addresses):
            return False
        if not local_set.issuperset(leader_addresses):
            raise ValueError("the leader subgroup cannot be split")
        return True

    def build(self, env, local: Iterable[str]) -> _Slice:
        local_set = set(local)
        state = _Slice()
        leader_addresses = self.leader_addresses()
        if self._hosts_leaders(local_set):
            build_leader_group(env, self.service, self.params)
        placed_members: List[LargeGroupMember] = []
        for i, address in enumerate(self.worker_addresses()):
            if address not in local_set:
                continue
            node = GroupNode(env, address)
            member = LargeGroupMember(
                node, self.service, leader_addresses, params=self.params
            )
            placed_members.append(member)
            state.members.append(member)
            member.add_delivery_listener(state._record(address))
            env.scheduler.at(self.join_stagger * (i + 1), member.join)

        def install():
            state.sanitizer = install_sanitizer(
                m.leaf_member for m in placed_members if m.is_member
            )

        env.scheduler.at(self.place_time, install)
        senders = {self.worker_addresses()[0]: 0, self.worker_addresses()[-1]: 1}
        for member in placed_members:
            offset = senders.get(member.me)
            if offset is None:
                continue

            def burst(member=member):
                if not member.is_member:
                    return  # unplaced: parity check reports the hole
                for i in range(3):
                    member.leaf_multicast(f"{member.me}/m{i}", FIFO)

            env.scheduler.at(self.place_time + 0.1 + 0.2 * offset, burst)
        return state

    def results(self, state: _Slice) -> Dict[str, Any]:
        placement = {}
        for member in state.members:
            if member.is_member:
                leaf = member.leaf_member
                placement[member.me] = (leaf.group, tuple(leaf.members))
            else:
                placement[member.me] = None
        return {
            "placement": placement,
            "seqs": {me: per_sender(log) for me, log in state.logs.items()},
            "counters": state.counters(),
        }

    # -- parity --------------------------------------------------------------

    def check(self, reference: Dict, live: Dict) -> List[str]:
        errors = []
        unplaced = sorted(
            me for me, slot in live["placement"].items() if slot is None
        )
        if unplaced:
            errors.append(f"workers never placed in a leaf: {unplaced}")
        if len(live["placement"]) != self.workers:
            errors.append(
                f"live run reported {len(live['placement'])}/"
                f"{self.workers} workers"
            )
        if reference["placement"] != live["placement"]:
            errors.append(
                f"leaf placement diverges: sim {reference['placement']!r} "
                f"!= live {live['placement']!r}"
            )
        if reference["seqs"] != live["seqs"]:
            errors.append(
                f"per-sender delivery sequences diverge: "
                f"sim {reference['seqs']!r} != live {live['seqs']!r}"
            )
        return errors


def make_scenario(name: str, size: Optional[int] = None):
    """CLI/test factory: ``flat`` (group size), ``hier`` (workers), or
    ``hier-reorg`` (the same plan with a load-driven reorg policy — leaf
    load reports and rate-triggered splits live on every engine)."""
    if name == "flat":
        return FlatScenario(members=size if size else 4)
    if name == "hier":
        return HierScenario(workers=size if size else 6)
    if name == "hier-reorg":
        return HierScenario(
            workers=size if size else 6,
            reorg=ReorgPolicy(
                mode="load",
                report_interval=0.5,
                cooldown=4.0,
                hot_delivery_rate=10.0,
                cold_delivery_rate=0.5,
            ),
        )
    raise ValueError(
        f"unknown scenario {name!r} (expected flat|hier|hier-reorg)"
    )


def merge_results(per_node: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Union per-node result slices into one cluster-wide result: member
    keyed maps merge disjointly, sanitizer counters sum."""
    merged: Dict[str, Any] = {}
    for result in per_node:
        for key, value in result.items():
            if key == "counters":
                acc = merged.setdefault("counters", {})
                for name, count in value.items():
                    acc[name] = acc.get(name, 0) + count
            else:
                merged.setdefault(key, {}).update(value)
    return merged


def run_reference(scenario, runtime=None) -> Dict[str, Any]:
    """The identical plan in one Environment owning every address: on
    the sim engine — the parity baseline every deployment is checked
    against — or on another single-process ``runtime`` (which the caller
    closes)."""
    from repro.proc.env import Environment
    from repro.runtime.sim_backend import SimRuntime

    if runtime is None:
        runtime = SimRuntime(seed=scenario.seed)
    env = Environment(latency=scenario.latency, runtime=runtime)
    state = scenario.build(env, scenario.addresses())
    env.run_for(scenario.duration)
    return scenario.results(state)
