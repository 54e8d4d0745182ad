"""Every interleaving of a manager handover, enumerated on the cores a
leader replica runs.

Three leader replicas ``r0``–``r2`` (``r0`` manages) each run the leader
group's :class:`~repro.membership.flush.ViewCore` (the flush
enumeration's :class:`~tests.test_flush_enumerated.Core`) and a
:class:`~repro.core.policy.Policy`.  The policy's port,
:class:`Replica`, is what :class:`~repro.core.leader.LeaderReplica` is
in a process, less its RPCs, timers and spans: the role is
``member.is_coordinator``, a proposed op is an abcast in the leader
group, a delivered op goes to ``Policy.on_op``, and a suspicion or a
leader view event rewatches.  A join or a report is answered by the
policy, as the process's RPC server answers it.  The alphabet:

* ``("crash",)`` — the manager ``r0`` crashes;
* ``("suspect", r)`` — replica ``r`` suspects ``r0``: truly after the
  crash, falsely without one;
* ``("deliver", src, dst)`` — the ``Flush``, ``FlushOk`` or ``NewView``
  at the head of the channel from ``src`` to ``dst`` arrives, the
  exclusion sent to a falsely suspected ``r0`` included; every other
  message arrives as soon as it is sent, in a fixed order;
* ``("join", r)`` — a joiner asks replica ``r`` for a leaf;
* ``("report", r)`` — the first leaf's creator reports it to ``r``.

After every event four specs are checked (docs/protocols.md, "The
manager's handover"):

1. **one manager** — with crashes only, at most one live replica
   manages;
2. **no self-redirect** — no replica answers a join or a report with a
   redirect to itself, and a join that reaches ``r1`` once it suspects
   the crashed ``r0`` is placed on that call;
3. **overlap** — after a false suspicion, at most one replica besides
   ``r0`` manages, ``r0`` manages no more once it has taken in its
   exclusion, and with no flush message in flight it has;
4. **watches** — a live replica that does not manage watches no leaf
   coordinator.

The parent's rule, a role cached and refreshed only on a leader view
event, is kept as the mutation :class:`Cached`, which the search must
find and shrink.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import HierarchyState, LargeGroupParams, Policy, ReportLeafStatus
from repro.core.leader import HOp
from repro.membership import TOTAL, Flush, FlushOk, NewView
from tests.enumeration import Event, check, explore, replay, shrink
from tests.test_flush_enumerated import Core, World
from tests.test_flush_enumerated import fingerprint as flush_fingerprint

LEADERS = ("r0", "r1", "r2")
MANAGER, SUCCESSOR = LEADERS[:2]
PARAMS = LargeGroupParams(resiliency=3, fanout=4)
NOW = 0.0  # no event reads the clock: the fill tick is never armed to fire


class Member(Core):
    """A replica's member of the leader group: its deliveries and view
    events reach the replica, as a ``GroupMember``'s listeners do."""

    replica = None  # attached once the initial view is installed

    def _emit(self, data) -> None:
        super()._emit(data)
        self.replica.on_delivery(data.payload)

    def _installed(self, old_view, message) -> None:
        super()._installed(old_view, message)
        if self.replica is not None:
            self.replica.on_view()

    def _departed(self, new_view) -> None:
        self.replica.on_view()


class Replica:
    """The policy's port, with the world for a process."""

    def __init__(self, member: Member) -> None:
        self.member = member
        self.state = HierarchyState("svc", PARAMS)
        self.policy = Policy(member.me, self.state, self)
        self.watched: Tuple[str, ...] = ()
        self.directed: List = []
        member.replica = self

    @property
    def is_manager(self) -> bool:
        return self.member.is_coordinator

    def on_delivery(self, payload) -> None:
        if isinstance(payload, HOp):
            self.policy.on_op(payload.op, NOW)

    def on_view(self) -> None:
        self.policy.rewatch()

    def on_suspect(self, address: str) -> None:
        """The process's detector listeners, in their order: the group
        runtime's, then the replica's."""
        self.member._on_suspect(address)
        self.policy.on_suspect(address)

    def _propose(self, op) -> None:
        self.member.multicast(HOp(group=self.member.group, op=op), TOTAL)

    def _direct(self, contacts, body) -> None:
        self.directed.append(body)

    def _probe(self, leaf_id, contacts) -> None:
        pass  # no leaf coordinator is suspected here

    def _rewatch(self, coordinators) -> None:
        self.watched = tuple(sorted(coordinators))

    def _arm_fill_tick(self, delay) -> None:
        pass

    def _record(self, name, *logged, **span) -> None:
        pass


class Cached(Replica):
    """The mutation: the parent's rule.  The role is cached, refreshed on
    a leader view event only, and a replica that takes it up rewatches."""

    def __init__(self, member: Member) -> None:
        super().__init__(member)
        self.manages = member.is_coordinator

    @property
    def is_manager(self) -> bool:
        return self.manages

    def on_view(self) -> None:
        was, self.manages = self.manages, self.member.is_coordinator
        if self.manages and not was:
            self.policy.rewatch()


class Leaders(World):
    """The three replicas, their leader-group channels, the answers they
    gave and what broke as it happened."""

    core = Member

    def __init__(self, scenario: "Scenario") -> None:
        super().__init__(LEADERS)
        self.replicas = {me: scenario.replica(self.cores[me]) for me in LEADERS}
        self.budget = dict(scenario.budget)
        self.joiners = 0
        self.creator: Optional[Tuple[str, str]] = None  # the first create's (leaf, joiner)
        self.broken: List[str] = []

    def ordered(self, src: str, payload) -> bool:
        return isinstance(payload, (Flush, FlushOk, NewView))

    def ask(self, me: str, kind: str) -> None:
        """A join or a report reaches ``me``; spec 2 reads the answer."""
        policy = self.replicas[me].policy
        if kind == "join":
            self.joiners += 1
            joiner = f"w{self.joiners}"
            reply = policy.on_join(joiner, NOW)
            if reply[0] == "create" and self.creator is None:
                self.creator = (reply[1], joiner)
        else:
            leaf_id, creator = self.creator
            reply = policy.on_report(ReportLeafStatus("svc", leaf_id, 1, (creator,)))
        if reply == ("redirect", me):
            self.broken.append(f"(2) {me} redirected a {kind} to itself")
        successor = self.cores[SUCCESSOR]
        if (
            kind == "join" and me == SUCCESSOR and self.crashed
            and (MANAGER in successor._suspects or not successor.view.contains(MANAGER))
            and reply[0] not in ("join", "create")
        ):
            self.broken.append(f"(2) {me}, the crashed manager's successor, answered {reply}")

    def managers(self) -> List[str]:
        return [me for me in self.live() if self.replicas[me].is_manager]

    def quiet(self) -> bool:
        """No flush message in flight and no flush under way."""
        in_flight = any(
            self.ordered(src, queue[0]) for (src, _), queue in self.channels.items()
        )
        return not in_flight and all(core._flush is None for core in self.cores.values())


class Scenario:
    """Whether the manager crashes, who may suspect it, and how many joins
    and reports the run asks."""

    def __init__(self, crash: bool, joins: int, reports: int, replica=Replica) -> None:
        self.crash = crash
        self.budget = {"join": joins, "report": reports}
        self.replica = replica

    def world(self) -> Leaders:
        world = Leaders(self)
        world.drain()
        return world

    def enabled(self, world: Leaders, trace) -> List[Event]:
        events: List[Event] = []
        if self.crash and not world.crashed:
            events.append(("crash",))
        if world.crashed or not self.crash:
            for me in LEADERS[1:]:
                core = world.cores[me]
                if core.view.contains(MANAGER) and MANAGER not in core._suspects:
                    events.append(("suspect", me))
        for (src, dst), queue in sorted(world.channels.items()):
            if world.ordered(src, queue[0]):
                events.append(("deliver", src, dst))
        if world.budget["join"]:
            events.extend(("join", me) for me in world.live())
        if world.budget["report"] and world.creator:
            events.extend(("report", me) for me in world.live())
        return events

    def apply(self, world: Leaders, event: Event) -> None:
        kind = event[0]
        if kind == "crash":
            world.crashed.add(MANAGER)
            for key in [k for k in world.channels if k[1] == MANAGER]:
                del world.channels[key]
        elif kind == "suspect":
            world.replicas[event[1]].on_suspect(MANAGER)
        elif kind == "deliver":
            world.deliver(event[1], event[2])
        else:
            world.budget[kind] -= 1
            world.ask(event[1], kind)
        world.drain()

    def violations(self, world: Leaders) -> List[str]:
        found = list(world.broken)
        managers = world.managers()
        if self.crash and len(managers) > 1:
            found.append(f"(1) {managers} all manage")
        if not self.crash:
            old = world.cores[MANAGER]
            if len([m for m in managers if m != MANAGER]) > 1:
                found.append(f"(3) {managers} all manage")
            if old.excluded and MANAGER in managers:
                found.append(f"(3) {MANAGER} manages after its exclusion")
            if world.quiet() and len(managers) > 1:
                found.append(f"(3) {managers} still all manage with nothing in flight")
        for me in world.live():
            replica = world.replicas[me]
            if replica.watched and not replica.is_manager:
                found.append(f"(4) {me} watches {replica.watched} and does not manage")
        return found

    def fingerprint(self, world: Leaders) -> tuple:
        replicas = tuple(
            (me, r.is_manager, r.watched, repr(r.directed),
             repr(sorted(r.state.leaves.items())),
             repr([getattr(r.policy, name) for name in Policy.MARKS]),
             r.policy._leaf_counter, r.policy.reorg_epoch)
            for me, r in sorted(world.replicas.items())
        )
        return (
            flush_fingerprint(world), replicas, world.creator, world.joiners,
            tuple(sorted(world.budget.items())), tuple(world.broken),
        )


CRASH = Scenario(crash=True, joins=3, reports=1)
FALSE = Scenario(crash=False, joins=3, reports=1)


def test_a_crashed_manager_hands_over_in_one_step():
    assert check(CRASH) == 973


def test_a_falsely_suspected_manager_overlaps_until_its_exclusion():
    assert check(FALSE) == 2898


def test_the_cached_role_is_found_and_shrunk():
    """The parent's rule: ``r2`` suspects the crashed manager and reports
    it to ``r1``, which is then the leader group's acting coordinator but
    not yet its manager, and redirects a join to itself."""
    scenario = Scenario(crash=True, joins=3, reports=1, replica=Cached)
    _, trace = explore(scenario)
    assert trace is not None
    small = shrink(scenario, trace)
    assert small == [("crash",), ("suspect", "r2"), ("join", "r1")]
    assert scenario.violations(replay(scenario, small)) == [
        "(2) r1 redirected a join to itself",
        "(2) r1, the crashed manager's successor, answered ('redirect', 'r1')",
    ]
