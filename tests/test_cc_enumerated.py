"""Every interleaving of a coordinator–cohort exchange, enumerated on the
cohort core alone.

Three :class:`~repro.toolkit.coordinator_cohort.CohortCore` members
``m0``–``m2`` (the cohort set of a group of three, ``m0`` coordinating)
run here through a fake port, with no scheduler, network or process.
Each client is a model of ``CoordinatorCohortClient``: it numbers its
calls from one counter the clients share, computes each write's ``lag``
with the module's :func:`~repro.toolkit.coordinator_cohort.lag`, and
receives replies through a real ``_CCDispatch`` on a fake process.
Every message sent waits in one bag, but those to ``m2`` arrive at once,
in a fixed order: ``m2`` is a cohort like ``m1`` but never the one a
takeover makes coordinator, and its races multiply the states without
adding a case.  The alphabet:

* ``("issue", client)`` — the client's next call in its plan goes out: a
  write to the set, a read to its coordinator;
* ``("deliver", label)`` — a message arrives, in any order; a message
  is *dropped* by never delivering it, since no other event reads the
  bag, so a run that drops one reaches the states of a run that leaves
  it in flight;
* ``("dup", label)`` — a message arrives and a copy stays in flight;
* ``("hedge", client, id)`` — the call's first attempt goes unanswered
  past the hedge delay: the same request goes to rank 1;
* ``("retry", client, id)`` — the call's timer fires: the client asks a
  live member for the set and sends the request again, a read to the
  next rank;
* ``("crash",)`` — the coordinator crashes; what it sent stays in the
  bag, what was sent to it is lost;
* ``("install", member)`` — a survivor installs the view without the
  crashed coordinator (rank 1 coordinates it and takes over);
* ``("recover", client)`` — the client process crashes and recovers: its
  replies in flight are lost, and the new incarnation's client, on a new
  process and dispatch, starts with no call; those the crash stranded
  died with the old one.

Each fault has a budget per run, and each scenario below has at most
two writes and one read and two kinds of fault: a write and a read with
a hedge, a retry and a duplicate already reach 45,446 states (30 s), and
three writes with a crash did not finish in 200 s.  After every event
five specs are
checked (docs/protocols.md, "The coordinator–cohort tool"):

1. **at most once** — a write runs at most once across the set while its
   record is held: no member runs a write that already ran at a member
   still up, or one whose result it holds or its floor has passed;
2. **one result** — every reply carries the result of a run of its
   request;
3. **floors** — no floor passes a write the client has not finished;
4. **takeover order** — a takeover runs pending writes in sorted
   ``(client, id)`` order;
5. **no pinned floor** — once a write of a client reaches a set member,
   that member's record for the client holds no id below the oldest call
   the client still waited on when it sent the write.

A violation is shrunk to a minimal event list, which
:func:`tests.enumeration.replay` runs again.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.membership.view import GroupView
from repro.toolkit.coordinator_cohort import (
    CCRead,
    CCReply,
    CCRequest,
    CCResultNote,
    CohortCore,
    _CCDispatch,
    lag,
)
from tests.enumeration import Event, check

GROUP = "g"
MEMBERS = ("m0", "m1", "m2")
VIEW = GroupView.initial(GROUP, MEMBERS)
# Label -> (src, dst, payload, the oldest call its client waited on when
# it sent a request, else 0).  A label spells the whole message, so every
# world shares one entry per message and clones only the labels.
MESSAGES: Dict[str, Tuple[str, str, object, int]] = {}


def is_get(payload) -> bool:
    return payload[0] == "get"


class Member(CohortCore):
    """A set member whose port is the world."""

    def __init__(self, world: "World", me: str, is_read) -> None:
        super().__init__(me, GROUP, resiliency=3, is_read=is_read)
        self.world = world
        self.on_view(VIEW)

    def _send(self, dst, payload) -> None:
        self.world.post(self.me, dst, payload)

    def _multicast(self, dsts, payload) -> None:
        for dst in dsts:
            self.world.post(self.me, dst, payload)

    def _run(self, request, client, takeover):
        return self.world.run(self, request, client, takeover)

    def _probe(self) -> None:
        pass  # what a probe leads to is the crash and install events

    def _is_coordinator(self) -> bool:
        return self.cohorts[0] == self.me


class Process:
    """What ``_CCDispatch`` asks of a process: handlers, which the world
    does without (it hands a reply to ``dispatch._on_reply`` itself, and a
    world with fewer bound methods clones faster)."""

    def __init__(self, address: str) -> None:
        self.address = address

    def on(self, kind, handler) -> None:
        pass


class Rpc:
    def serve(self, kind, handler) -> None:
        pass


class Client:
    """A client process: a plan of calls, the set it knows, and its calls
    in flight (``dispatch.outstanding`` holds their ids)."""

    def __init__(self, world: "World", name: str, plan) -> None:
        self.world = world
        self.name = name
        self.plan = list(plan)
        self.start()
        # A directory entry: the set, as of no view.
        self.members = MEMBERS
        self.view_seq = 0

    def start(self) -> None:
        """A new incarnation: its process and dispatch, and no call."""
        self.dispatch = _CCDispatch(Process(self.name), rpc=Rpc())
        # id -> [payload, read, attempt, hedged]
        self.calls: Dict[int, list] = {}

    def issue(self) -> None:
        world = self.world
        request_id = world.next_id
        world.next_id += 1
        payload = self.plan.pop(0)
        self.calls[request_id] = [payload, is_get(payload), 0, False]
        self.dispatch.outstanding[request_id] = self
        world.waiting[self.name].append(request_id)
        self.send(request_id)

    def request(self, request_id: int) -> CCRequest:
        payload, read, _, _ = self.calls[request_id]
        if read:
            return CCRead(GROUP, request_id, payload, self.view_seq)
        return CCRequest(
            GROUP, request_id, payload, self.view_seq,
            lag(request_id, self.dispatch.outstanding),
        )

    def send(self, request_id: int, to: Optional[str] = None) -> None:
        call = self.calls[request_id]
        request = self.request(request_id)
        if to is not None:
            targets = (to,)
        elif call[1]:
            targets = (self.members[call[2] % len(self.members)],)
        else:
            targets = self.members
        for dst in targets:
            self.world.post(self.name, dst, request)

    def hedge(self, request_id: int) -> None:
        self.calls[request_id][3] = True
        self.send(request_id, to=self.members[1])

    def retry(self, request_id: int) -> None:
        self.calls[request_id][2] += 1
        member = self.world.members[self.world.live()[0]]
        self.learn(member.view_seq, member.cohorts)
        self.send(request_id)

    def learn(self, view_seq: int, cohorts) -> None:
        if view_seq > self.view_seq:
            self.view_seq, self.members = view_seq, cohorts

    # What ``_CCDispatch`` calls.

    def _on_reply(self, reply: CCReply, sender: str) -> None:
        if reply.cohorts:
            self.learn(reply.view_seq, reply.cohorts)
        self.dispatch.outstanding.pop(reply.request_id, None)
        if self.calls.pop(reply.request_id, None) is not None:
            waiting = self.world.waiting[self.name]
            if reply.request_id in waiting:
                waiting.remove(reply.request_id)


class World:
    """The members, the clients, the bag of messages in flight, and the
    specs' books."""

    def __init__(self, scenario: "Scenario") -> None:
        is_read = is_get if scenario.declared else None
        self.members = {me: Member(self, me, is_read) for me in MEMBERS}
        self.crashed: Optional[str] = None
        self.budget = dict(scenario.budget)
        self.next_id = 1
        # The labels of the messages in flight, sorted; see ``MESSAGES``.
        self.bag: List[str] = []
        # The specs' books: who waits on what (the truth, not the
        # dispatch's belief), every run, and what broke as it happened.
        self.waiting: Dict[str, List[int]] = {}
        self.runs: Dict[Tuple[str, int], List[Tuple[str, object]]] = {}
        self.takeover_runs: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
        self.broken: List[str] = []
        self.clients: Dict[str, Client] = {}
        for name, plan in scenario.plans:
            self.waiting[name] = []
            self.clients[name] = Client(self, name, plan)
        self.eager = scenario.eager

    def drain(self) -> None:
        """Deliver every message to an eager member, in a fixed order."""
        while True:
            label = next((e for e in self.bag if MESSAGES[e][1] in self.eager), None)
            if label is None:
                return
            self.take(label, keep=False)

    def live(self) -> List[str]:
        return [m for m in MEMBERS if m != self.crashed]

    def post(self, src: str, dst: str, payload) -> None:
        if dst == self.crashed:
            return
        oldest = 0
        if type(payload) is CCRequest and src in self.clients:
            oldest = self.waiting[src][0] if self.waiting[src] else payload.request_id
        if isinstance(payload, CCReply):
            self.check_reply(dst, payload)
        label = f"{src}>{dst} {payload!r}" + (f" oldest={oldest}" if oldest else "")
        MESSAGES.setdefault(label, (src, dst, payload, oldest))
        insort(self.bag, label)

    def take(self, label: str, keep: bool) -> None:
        if not keep:
            self.bag.remove(label)
        src, dst, payload, oldest = MESSAGES[label]
        if dst in self.clients:
            self.clients[dst].dispatch._on_reply(payload, src)
        elif isinstance(payload, CCResultNote):
            self.members[dst].on_result_note(payload)
        else:
            member = self.members[dst]
            member.on_request(payload, src)
            if type(payload) is CCRequest and member.me in member.cohorts:
                self.check_floor(member, payload.client or src, oldest)

    def run(self, member: Member, request, client: str, takeover: bool):
        """The handler: each run's result names the run."""
        key = (client, request.request_id)
        result = (request.request_id, member.me, member.view_seq)
        read = type(request) is CCRead and member.is_read is not None
        if not read:
            earlier = [m for m, _ in self.runs.get(key, ()) if m != self.crashed]
            floor, results, pending = member.records().get(client, (0, {}, {}))
            if earlier or key[1] < floor or key[1] in results:
                self.broken.append(
                    f"(1) {key} ran again at {member.me}: earlier at {earlier}, "
                    f"floor {floor}, results {sorted(results)}"
                )
        if takeover:
            order = self.takeover_runs.setdefault((member.me, member.view_seq), [])
            order.append(key)
            if order != sorted(order):
                self.broken.append(f"(4) takeover at {member.me} ran {order}")
        self.runs.setdefault(key, []).append((member.me, result))
        return result

    def check_reply(self, client: str, reply: CCReply) -> None:
        ran = [result for _, result in self.runs.get((client, reply.request_id), ())]
        if reply.result not in ran:
            self.broken.append(
                f"(2) reply to {client} for {reply.request_id} carries "
                f"{reply.result}, runs gave {ran}"
            )

    def check_floor(self, member: Member, client: str, oldest: int) -> None:
        record = member.records().get(client)
        if record is None:
            return
        floor, results, pending = record
        stale = sorted(i for i in (*results, *pending) if i < oldest)
        if stale:
            self.broken.append(
                f"(5) {member.me} holds {client}'s {stale} below {oldest}"
            )


class Scenario:
    """Who calls what, whether the members declare reads, and each fault's
    budget per run."""

    def __init__(self, plans, declared=True, eager=("m2",), **budget) -> None:
        self.plans = plans  # (client, [payload, ...])
        self.declared = declared
        self.eager = eager  # members whose messages arrive at once
        self.budget = dict.fromkeys(FAULTS, 0)
        self.budget.update(budget)

    def world(self) -> World:
        return World(self)

    def enabled(self, world: World, trace) -> List[Event]:
        events: List[Event] = []
        budget = world.budget
        for name, client in world.clients.items():
            if client.plan:
                events.append(("issue", name))
            for request_id, (_, _, attempt, hedged) in client.calls.items():
                if budget["hedge"] and not attempt and not hedged:
                    events.append(("hedge", name, request_id))
                if budget["retry"]:
                    events.append(("retry", name, request_id))
            if budget["recover"] and client.calls:
                events.append(("recover", name))
        labels = sorted({e for e in world.bag if MESSAGES[e][1] not in world.eager})
        events.extend(("deliver", label) for label in labels)
        if budget["dup"]:
            events.extend(("dup", label) for label in labels)
        if world.crashed is None:
            if budget["crash"]:
                events.append(("crash",))
        else:
            events.extend(
                ("install", me) for me in world.live()
                if world.members[me].view_seq == VIEW.seq
            )
        return events

    def apply(self, world: World, event: Event) -> None:
        kind = event[0]
        if kind in ("hedge", "retry", "recover", "dup", "crash"):
            world.budget[kind] -= 1
        if kind == "issue":
            world.clients[event[1]].issue()
        elif kind in ("deliver", "dup"):
            world.take(event[1], keep=kind == "dup")
        elif kind == "hedge":
            world.clients[event[1]].hedge(event[2])
        elif kind == "retry":
            world.clients[event[1]].retry(event[2])
        elif kind == "crash":
            world.crashed = MEMBERS[0]
            world.bag = [e for e in world.bag if MESSAGES[e][1] != world.crashed]
        elif kind == "install":
            world.members[event[1]].on_view(VIEW.successor(remove=[world.crashed]))
        elif kind == "recover":
            name = event[1]
            world.bag = [e for e in world.bag if MESSAGES[e][1] != name]
            world.waiting[name] = []
            world.clients[name].start()
        world.drain()

    def violations(self, world: World) -> List[str]:
        found = list(world.broken)
        for name, waiting in world.waiting.items():
            for me in world.live():
                record = world.members[me].records().get(name)
                if record is not None and waiting and waiting[0] < record[0]:
                    found.append(
                        f"(3) {me}'s floor {record[0]} for {name} passes {waiting[0]}"
                    )
        return found

    def fingerprint(self, world: World) -> tuple:
        members = tuple(
            (me, m.view_seq, repr(sorted(m.records().items())))
            for me, m in world.members.items() if me != world.crashed
        )
        clients = tuple(
            (name, len(c.plan), c.view_seq, c.members, repr(sorted(c.calls.items())),
             tuple(c.dispatch.outstanding), tuple(world.waiting[name]))
            for name, c in world.clients.items()
        )
        return (
            members, clients, tuple(world.bag),
            world.crashed, tuple(sorted(world.budget.items())), world.next_id,
            repr(sorted(world.runs.items())), tuple(world.broken),
        )


FAULTS = ("hedge", "retry", "recover", "dup", "crash")

CRASH = Scenario(plans=(("c0", [("put", "a"), ("put", "b")]),), crash=1)
TWO_CLIENTS = Scenario(plans=(("c0", [("put", "a")]), ("c1", [("put", "b")])), crash=1)
RECOVER = Scenario(plans=(("c0", [("put", "a"), ("put", "b")]),), recover=1)
HEDGE = Scenario(plans=(("c0", [("put", "a"), ("get", "a")]),), hedge=1, dup=1)
UNDECLARED = Scenario(
    plans=(("c0", [("put", "a"), ("get", "a")]),), declared=False, retry=1,
)


def test_two_writes_and_a_coordinator_crash():
    assert check(CRASH) == 4204


def test_two_clients_and_a_coordinator_crash():
    assert check(TWO_CLIENTS) == 2873


def test_two_writes_and_a_client_that_recovers():
    assert check(RECOVER) == 749


def test_a_write_and_a_read_hedged_and_duplicated():
    assert check(HEDGE) == 2785


def test_a_write_and_a_read_the_members_do_not_declare():
    assert check(UNDECLARED) == 1673
