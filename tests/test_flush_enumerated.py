"""Every interleaving of a flush, enumerated on the view-change core alone.

The cores of :mod:`repro.membership.flush` run here through a fake port:
no scheduler, network, process or transport, only FIFO channels between
cores.  A run is a sequence of *events* from a small alphabet; every
other message is delivered as soon as it is sent, in a fixed order.  The
alphabet is:

* ``("start",)`` — the initiator starts the view change (a join, or a
  leave);
* ``("deliver", src, dst)`` — the message at the head of the channel
  from ``src`` to ``dst`` arrives, when it is a ``FlushOk`` (so reports
  reach the initiator in every order) or a non-sequencer's multicast (a
  relayed abcast reaching the sequencer, or an fbcast, before or after
  the receiver's own report);
* ``("crash", member)`` — one member crashes, at any step of the flush;
* ``("suspect",)`` — the acting coordinator suspects the crashed member;
* ``("timeout",)`` — the initiator's flush timeout fires, after a crash.

After every event the test checks virtual synchrony (members of view 1
that install view 2 delivered the same view-1 messages), total-order
agreement, and that a joiner's state snapshot holds the flushed set.  A
violation is shrunk to a minimal event list, which :func:`replay` runs
again (:mod:`tests.enumeration` holds the search).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.membership import (
    FIFO,
    TOTAL,
    Flush,
    FlushAbort,
    FlushOk,
    GroupData,
    GroupView,
    NewView,
    SuspectReport,
    ViewCore,
)
from tests.enumeration import Event, check

HANDLERS = {
    GroupData: ViewCore._on_data,
    Flush: ViewCore._on_flush,
    FlushOk: ViewCore._on_flush_ok,
    FlushAbort: ViewCore._on_flush_abort,
    NewView: ViewCore._on_new_view,
    SuspectReport: ViewCore._on_suspect_report,
}


class Core(ViewCore):
    """A member whose port is the world's channels.  Its application state
    is the list of what it delivered, which is also its snapshot."""

    def __init__(self, world: "World", me: str, members: Sequence[str]) -> None:
        super().__init__(me, "g")
        self.world = world
        self.log: List[Tuple[int, Tuple[str, int], str]] = []
        self.timer = False
        self.snapshot: Optional[list] = None
        self.state_provider = self.app_state
        if members:
            self._install(NewView(view=GroupView.initial("g", members)))

    def app_state(self) -> list:
        return list(self.log)

    def _send(self, dst, payload) -> None:
        self.world.post(self.me, dst, payload)

    def _send_many(self, dsts, payload) -> None:
        for dst in dsts:
            self.world.post(self.me, dst, payload)

    _datagram = _send

    def _emit(self, data: GroupData) -> None:
        self.log.append((data.view_seq, data.message_id, data.ordering))

    def _set_flush_timer(self, armed: bool) -> None:
        self.timer = armed

    def _rewatch(self) -> None:
        pass

    def _note(self, span: str, **fields) -> None:
        pass

    def _installed(self, old_view, message: NewView) -> None:
        if message.app_state is not None:
            self.snapshot = message.app_state

    def _departed(self, new_view) -> None:
        pass


def is_alphabet(src: str, payload, sequencer: str) -> bool:
    """Messages whose arrival the enumeration orders; the rest arrive at
    once."""
    if isinstance(payload, FlushOk):
        return True
    return isinstance(payload, GroupData) and src != sequencer


class World:
    """Cores, the FIFO channels between them, and who crashed."""

    core = Core  # what each member runs

    def __init__(self, members: Sequence[str], joiners: Sequence[str] = ()) -> None:
        self.initial = tuple(members)
        self.channels: Dict[Tuple[str, str], List] = {}
        self.crashed: Set[str] = set()
        self.cores: Dict[str, Core] = {}
        for me in members:
            self.cores[me] = self.core(self, me, members)
        for me in joiners:
            self.cores[me] = self.core(self, me, ())
        self.suspicion_due = False

    def ordered(self, src: str, payload) -> bool:
        """Whether the enumeration orders this message's arrival."""
        return is_alphabet(src, payload, self.initial[0])

    def post(self, src: str, dst: str, payload) -> None:
        if dst not in self.crashed:
            self.channels.setdefault((src, dst), []).append(payload)

    def deliver(self, src: str, dst: str) -> None:
        queue = self.channels[(src, dst)]
        payload = queue.pop(0)
        if not queue:
            del self.channels[(src, dst)]
        if dst not in self.crashed:
            HANDLERS[type(payload)](self.cores[dst], payload, src)

    def drain(self) -> None:
        """Deliver every message outside the alphabet, in a fixed order."""
        moved = True
        while moved:
            moved = False
            for (src, dst), queue in sorted(self.channels.items()):
                if not self.ordered(src, queue[0]):
                    self.deliver(src, dst)
                    moved = True
                    break

    def live(self) -> List[str]:
        return [m for m in self.initial if m not in self.crashed]


class Scenario:
    """A group, the multicasts in flight when the run begins, and what
    starts the view change."""

    def __init__(self, members, joiners, sends, start, victims) -> None:
        self.members = members
        self.joiners = joiners
        self.sends = sends  # (sender, ordering)
        self.start = start  # ("join", joiner) or ("leave", member)
        self.victims = victims  # who may crash

    def world(self) -> World:
        world = World(self.members, self.joiners)
        for sender, ordering in self.sends:
            world.cores[sender].multicast(f"{sender}-{ordering}", ordering)
        world.drain()
        return world

    def enabled(self, world: World, trace: Sequence[Event]) -> List[Event]:
        events: List[Event] = []
        if ("start",) not in trace:
            events.append(("start",))
        for (src, dst), queue in sorted(world.channels.items()):
            if is_alphabet(src, queue[0], self.members[0]):
                events.append(("deliver", src, dst))
        if world.cores[self.members[0]]._flush is None:
            return events  # not flushing: no crash, no suspicion
        if not world.crashed:
            events.extend(("crash", victim) for victim in self.victims)
        elif world.suspicion_due:
            events.append(("suspect",))
        if world.crashed and world.cores[self.members[0]].timer:
            events.append(("timeout",))
        return events

    def apply(self, world: World, event: Event) -> None:
        kind = event[0]
        if kind == "start":
            initiator = world.cores[self.members[0]]
            what, who = self.start
            if what == "join":
                initiator._pending_joins.append(who)
            else:
                initiator._pending_leaves.add(who)
            initiator._maybe_start_view_change()
        elif kind == "deliver":
            world.deliver(event[1], event[2])
        elif kind == "crash":
            victim = event[1]
            world.crashed.add(victim)
            world.cores[victim].timer = False
            for key in [k for k in world.channels if k[1] == victim]:
                del world.channels[key]
            world.suspicion_due = True
        elif kind == "suspect":
            world.suspicion_due = False
            (victim,) = world.crashed
            world.cores[world.live()[0]]._on_suspect(victim)
        elif kind == "timeout":
            initiator = world.cores[self.members[0]]
            initiator.timer = False
            initiator._flush_timeout()
        world.drain()

    def violations(self, world: World) -> List[str]:
        return violations(world)

    def fingerprint(self, world: World) -> tuple:
        return fingerprint(world)


def violations(world: World) -> List[str]:
    """The three properties, on the state as it stands."""
    found: List[str] = []
    by_view: Dict[str, Dict[int, List]] = {}
    for name, core in world.cores.items():
        per_view: Dict[int, List] = {}
        for view_seq, message_id, ordering in core.log:
            per_view.setdefault(view_seq, []).append((message_id, ordering))
        by_view[name] = per_view
    installed = {
        name: core.view.seq for name, core in world.cores.items()
        if core.view is not None and not core.excluded
    }
    # Virtual synchrony: survivors from 1 to 2 delivered one view-1 set.
    survivors = [
        name for name, seq in installed.items()
        if seq >= 2 and name in world.initial
    ]
    sets = {
        name: sorted(m for m, _ in by_view[name].get(1, [])) for name in survivors
    }
    if len({tuple(s) for s in sets.values()}) > 1:
        found.append(f"virtual synchrony: view-1 sets {sets}")
    # Total order: common abcasts in one relative order everywhere.
    orders = {
        name: [m for m, o in by_view[name].get(1, []) if o == TOTAL]
        for name in world.cores
        if name not in world.crashed
    }
    names = sorted(orders)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            common = set(orders[a]) & set(orders[b])
            if [m for m in orders[a] if m in common] != [
                m for m in orders[b] if m in common
            ]:
                found.append(f"total order: {a} {orders[a]} vs {b} {orders[b]}")
    # The joiner's snapshot holds everything the old view delivered.
    for name, core in world.cores.items():
        if name in world.initial or core.snapshot is None:
            continue
        held = {message_id for _, message_id, _ in core.snapshot}
        for survivor in survivors:
            lacking = sorted(set(sets[survivor]) - held)
            if lacking:
                found.append(f"snapshot at {name} lacks {lacking}")
    return found


def fingerprint(world: World) -> tuple:
    """Everything about a state that later events or the checks read."""
    cores = []
    for name in sorted(world.cores):
        core = world.cores[name]
        flush = core._flush
        engine = core._engines.get(TOTAL)
        cores.append((
            name, core.view, core.left, core.excluded, core._reported,
            tuple(core.log), repr(core._outbox),
            repr([held[1:] for held in core._future]),
            tuple(sorted(core._suspects)),
            tuple(core._pending_joins), tuple(sorted(core._pending_leaves)),
            core._sender_seq, core.timer, repr(core.snapshot),
            None if flush is None else (
                tuple(flush.targets), tuple(flush.proposed),
                tuple(flush.joiners), tuple(sorted(map(repr, flush.responses.items()))),
            ),
            None if engine is None else (
                tuple(engine.known_orders()), repr(engine.held()),
                engine.next_global_seq, engine.delivered_through,
            ),
            None if core._stability is None else repr(core._stability.unstable()),
        ))
    channels = tuple(
        (key, repr(queue)) for key, queue in sorted(world.channels.items())
    )
    return (
        tuple(cores), channels, tuple(sorted(world.crashed)),
        world.suspicion_due,
    )


JOIN = Scenario(
    members=("g-0", "g-1", "g-2"),
    joiners=("j",),
    sends=(("g-1", TOTAL), ("g-2", TOTAL), ("g-2", FIFO), ("g-0", TOTAL)),
    start=("join", "j"),
    victims=("g-1", "g-2"),
)

DROP = Scenario(
    members=("g-0", "g-1", "g-2", "g-3"),
    joiners=(),
    sends=(("g-1", TOTAL), ("g-3", FIFO)),
    start=("leave", "g-2"),
    victims=("g-1", "g-3"),
)


def test_every_flush_of_three_members_and_a_joiner():
    assert check(JOIN) == 2734


def test_every_flush_of_four_members_with_a_mid_flush_drop():
    assert check(DROP) == 9641
