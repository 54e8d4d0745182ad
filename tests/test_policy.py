"""The manager's policy alone: a recording port and a model of the leaves.

:class:`~repro.core.policy.Policy` runs here with no simulator.  Its
port records what it is asked to do, and a small model of the leaves
around it answers: joiners routed to a leaf arrive in it, a leaf's
coordinator reports its size (and, in load mode, a rate), proposed ops
are applied in the order proposed, and directives are carried out (a
split moves half a leaf's members into its offspring, and a merge moves
the absorbed leaf's members into the target).  A run is a sequence of steps from a
small alphabet, drawn by hypothesis in both ``ReorgPolicy`` modes.
After every step these specs must hold:

* **routable** — no joiner is routed to a split-born leaf before that
  leaf's ``AddLeaf`` carries contacts;
* **one directive** — no leaf gets a directive while one is in flight
  for it: a split until the leaf reports at most the split threshold or
  a new coordinator, a merge until the leaf's ``RemoveLeaf``;
* **target held** — a merge's target gets no directive and is no other
  merge's target until the absorbed leaf's ``RemoveLeaf`` applies, so
  no leaf is merged away while members are sent to it;
* **fill grace** — no leaf born for joiners is merged by the size rail
  while it fills: until it first reports ``leaf_min`` members, and
  while each joiner routed to it came within ``FILL_GRACE`` of its birth
  or of the joiner before (a joiner routed after such a gap does not
  start a new fill);
* **one pass** — one input sends each leaf at most one directive;
* **cooldown** — in load mode, no hot split or cold merge touches a
  leaf that reorganised less than ``cooldown`` ago;
* **no overfill** — no joiner is routed to a leaf whose members plus
  the joiners still on their way to it already reach the split
  threshold (growth alone never makes a leaf split).

A leaf's report covers as many routed joiners as it grew by, so the
last spec is exact only for a leaf that grew by joiners alone: the
model reports every size in order, and a leaf that took in a merge's
members is exempt from it from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AddLeaf,
    LargeGroupParams,
    MergeDirective,
    Policy,
    RemoveLeaf,
    ReorgPolicy,
    SplitDirective,
    UpdateLeaf,
)
from repro.core.policy import FILL_GRACE
from repro.core.views import HierarchyState
from tests.test_join_storm import PARAMS as STORM, manager_of, run_until_placed, storm
from tests.test_reorg_load import run_scenario

SIZE = LargeGroupParams(resiliency=2, fanout=3)  # leaf_min 3, split above 6
LOAD = LargeGroupParams(
    resiliency=2, fanout=3,
    reorg=ReorgPolicy(
        mode="load", ewma_alpha=1.0, hot_delivery_rate=8.0,
        cold_delivery_rate=0.5, cooldown=1.5,
    ),
)
RATES = (0.0, 1.0, 20.0)
ME = "svc-ldr-0"


@dataclass
class Report:
    """What a leaf coordinator's ``ReportLeafStatus`` carries."""

    leaf_id: str
    size: int
    contacts: Tuple[str, ...]
    delivery_rate: float = -1.0


class Recorder:
    """A port that records every call, in order.  Its replica manages
    unless told otherwise."""

    def __init__(self, is_manager: bool = True) -> None:
        self.is_manager = is_manager
        self.calls: List[Tuple] = []
        self.tick_at: Optional[float] = None
        self.now = 0.0

    def _propose(self, op) -> None:
        self.calls.append(("propose", op))

    def _direct(self, contacts, body) -> None:
        self.calls.append(("direct", body))

    def _probe(self, leaf_id, contacts) -> None:
        self.calls.append(("probe", leaf_id, tuple(contacts)))

    def _rewatch(self, coordinators) -> None:
        self.calls.append(("rewatch", tuple(sorted(coordinators))))

    def _arm_fill_tick(self, delay) -> None:
        self.calls.append(("arm", delay))
        self.tick_at = self.now + delay

    def _record(self, name, *logged, **span) -> None:
        self.calls.append(("record", name, logged, span.get("reason")))


class World(Recorder):
    """A manager's policy, the leaves around it and the specs' books."""

    def __init__(self, params: LargeGroupParams) -> None:
        super().__init__()
        self.params = params
        self.state = HierarchyState("svc", params)
        self.policy = Policy(ME, self.state, self)
        self.members: Dict[str, List[str]] = {}
        self.pending: Dict[str, List[str]] = {}
        self.queue: List = []
        self.joiners = 0
        # The specs' books, kept from what the port saw.
        self.split_born: set = set()
        self.reached_min: set = set()
        self.fill_until: Dict[str, float] = {}
        self.merged_into: set = set()
        self.in_flight: Dict[str, Optional[str]] = {}
        self.absorbing: Dict[str, str] = {}  # merge target -> absorbed leaf
        self.reorganised: Dict[str, float] = {}
        self.to_act: List = []
        self.directed_this_pass: List[str] = []

    # -- the port -----------------------------------------------------------------

    def _propose(self, op) -> None:
        super()._propose(op)
        self.queue.append(op)

    def _record(self, name, *logged, **span) -> None:
        super()._record(name, *logged, **span)
        if name == "op":
            self.applied(logged[0])

    def _direct(self, contacts, body) -> None:
        super()._direct(contacts, body)
        reason = self.calls[-2][3]  # the decision's record precedes it
        leaf_id = body.leaf_id
        assert leaf_id not in self.in_flight, f"second directive for {leaf_id}"
        assert leaf_id not in self.absorbing, (
            f"{leaf_id} directed while {self.absorbing.get(leaf_id)} merges into it"
        )
        assert leaf_id not in self.directed_this_pass, f"{leaf_id} twice in a pass"
        self.directed_this_pass.append(leaf_id)
        if isinstance(body, SplitDirective):
            involved = [leaf_id]
            self.in_flight[leaf_id] = self.state.leaves[leaf_id].coordinator
            self.split_born.add(body.new_leaf_id)
            touched = [leaf_id, body.new_leaf_id]
        else:
            involved = touched = [leaf_id, body.target_group]
            assert body.target_group not in self.absorbing, (
                f"{body.target_group} is the target of two merges in flight"
            )
            self.in_flight[leaf_id] = None
            self.absorbing[body.target_group] = leaf_id
            if reason == "size" and leaf_id not in self.reached_min:
                assert self.now >= self.fill_until.get(leaf_id, self.now), (
                    f"{leaf_id} merged while it fills"
                )
        if self.params.reorg.load_driven:
            if reason in ("hot", "cold"):
                cooldown = self.params.reorg.cooldown
                for leaf in involved:
                    last = self.reorganised.get(leaf)
                    assert last is None or self.now - last >= cooldown, (
                        f"{leaf} reorganised inside its cooldown"
                    )
            for leaf in touched:
                self.reorganised[leaf] = self.now
        self.to_act.append(body)

    # -- steps --------------------------------------------------------------------

    def join(self, draw: int) -> None:
        self.joiners += 1
        joiner = f"w{self.joiners}"
        reply = self.policy.on_join(joiner, self.now)
        leaf_id = reply[1]
        if reply[0] == "create":
            self.members[leaf_id] = []
            self.pending[leaf_id] = []
        else:
            if leaf_id in self.split_born:
                leaf = self.state.leaves.get(leaf_id)
                assert leaf is not None and leaf.contacts, (
                    f"joiner sent to split-born {leaf_id} before it is routable"
                )
            if leaf_id not in self.members:
                return  # a leaf the model already merged away
            on_the_way = len(self.members[leaf_id]) + len(self.pending[leaf_id])
            assert leaf_id in self.merged_into or (
                on_the_way < self.params.leaf_split_threshold
            ), (
                f"{leaf_id} overfilled: {on_the_way} members and joiners"
            )
        self.pending[leaf_id].append(joiner)
        if reply[0] == "create" or self.now < self.fill_until.get(leaf_id, self.now):
            self.fill_until[leaf_id] = self.now + FILL_GRACE  # born for joiners

    def arrive(self, draw: int) -> None:
        waiting = sorted(l for l, names in self.pending.items() if names)
        if waiting:
            leaf_id = waiting[draw % len(waiting)]
            self.members[leaf_id].append(self.pending[leaf_id].pop(0))

    def report(self, draw: int) -> None:
        leaves = sorted(l for l, names in self.members.items() if names)
        if leaves:
            leaf_id = leaves[draw % len(leaves)]
            names = self.members[leaf_id]
            rate = RATES[draw % 3] if self.params.reorg.load_driven else -1.0
            self.policy.on_report(Report(
                leaf_id, len(names), tuple(names[: self.params.resiliency]), rate,
            ))

    def leave(self, draw: int) -> None:
        leaves = sorted(l for l, names in self.members.items() if names)
        if leaves:
            names = self.members[leaves[draw % len(leaves)]]
            names.pop(draw % len(names))

    def deliver(self, draw: int) -> None:
        if self.queue:
            self.policy.on_op(self.queue.pop(0), self.now)

    def applied(self, op) -> None:
        """The policy applied ``op``: the books follow it before the
        policy's pass over the rails reads them."""
        leaf_id = op.leaf_id
        if isinstance(op, RemoveLeaf):
            self.in_flight.pop(leaf_id, None)
            self.absorbing = {
                target: absorbed for target, absorbed in self.absorbing.items()
                if leaf_id not in (target, absorbed)
            }
        else:
            if op.size >= self.params.leaf_min:
                self.reached_min.add(leaf_id)
            leaf = self.state.leaves[leaf_id]
            split_at = self.in_flight.get(leaf_id)
            if split_at is not None and (
                leaf.size <= self.params.leaf_split_threshold
                or leaf.coordinator != split_at
            ):
                del self.in_flight[leaf_id]

    def wait(self, draw: int) -> None:
        until = self.now + 0.25 * (1 + draw)
        while self.tick_at is not None and self.tick_at <= until:
            self.now, self.tick_at = self.tick_at, None
            self.policy.on_fill_tick(self.now)
            self.directed_this_pass = []
        self.now = until

    def act(self, draw: int) -> None:
        if not self.to_act:
            return
        body = self.to_act.pop(draw % len(self.to_act))
        names = self.members.get(body.leaf_id)
        if names is None:
            return
        if isinstance(body, MergeDirective):
            del self.members[body.leaf_id], self.pending[body.leaf_id]
            if body.target_group in self.members:
                self.members[body.target_group] += names
                self.merged_into.add(body.target_group)
        elif len(names) >= 2:
            half = len(names) // 2
            self.members[body.new_leaf_id] = names[half:]
            self.pending[body.new_leaf_id] = []
            del names[half:]

    def suspect(self, draw: int) -> None:
        coordinators = sorted(
            l.coordinator for l in self.state.leaves.values() if l.contacts
        )
        if coordinators:
            suspect = coordinators[draw % len(coordinators)]
            done = len(self.calls)
            self.policy.on_suspect(suspect)
            probes = [call[1:] for call in self.calls[done:] if call[0] == "probe"]
            for leaf_id, contacts in probes:
                assert self.state.leaves[leaf_id].coordinator == suspect
                assert suspect not in contacts

    def step(self, kind: str, draw: int) -> None:
        self.directed_this_pass = []
        getattr(self, kind)(draw)


STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ("join",) * 4 + ("arrive",) * 3 + ("report",) * 3 + ("deliver",) * 4
            + ("wait",) * 2 + ("act",) * 2 + ("leave", "suspect")
        ),
        st.integers(0, 7),
    ),
    min_size=30,
    max_size=90,
)


@pytest.mark.parametrize("params", [SIZE, LOAD], ids=["size", "load"])
def test_policy_specs_hold_on_any_input_sequence(params):
    @settings(max_examples=250, deadline=None)
    @given(STEPS)
    def run(steps):
        world = World(params)
        for kind, draw in steps:
            world.step(kind, draw)

    run()


def named_by_directives(recorder: Recorder) -> List[str]:
    return [
        leaf
        for call in recorder.calls
        if call[0] == "direct"
        for leaf in (call[1].leaf_id, call[1].target_group)
    ]


def test_one_pass_names_each_leaf_in_one_directive():
    """The "one pass" spec above counts the leaf a directive is sent to;
    counting merge targets too, it holds as well.  Two leaves below
    ``leaf_min`` and past any fill are not merged into each other by one
    pass: the size rail takes its target among leaves with no directive
    in flight."""
    recorder = Recorder()
    policy = Policy(ME, HierarchyState("svc", SIZE), recorder)
    for i in (1, 2):
        recorder.calls = []
        policy.on_op(AddLeaf(f"{ME}/{i}", size=1, contacts=(f"w{i}",)), 0.0)
    named = named_by_directives(recorder)
    assert len(named) == len(set(named)), named


def test_a_leaf_whose_removal_is_in_flight_is_no_merge_target():
    """A second pass while the first merge's ``RemoveLeaf`` is unapplied:
    the absorbed leaf is still directed, so the size rail does not merge
    the other leaf, shrunk below ``leaf_min`` since, into it."""
    recorder = Recorder()
    policy = Policy(ME, HierarchyState("svc", SIZE), recorder)
    ops = (AddLeaf, f"{ME}/1", 1), (AddLeaf, f"{ME}/2", 4), (UpdateLeaf, f"{ME}/2", 1)
    for kind, leaf_id, size in ops:
        recorder.calls = []
        policy.on_op(kind(leaf_id, size=size, contacts=(f"w-{leaf_id}",)), 0.0)
        if size == 4:
            assert named_by_directives(recorder) == [f"{ME}/1", f"{ME}/2"]
            assert ("propose", RemoveLeaf(leaf_id=f"{ME}/1")) in recorder.calls
    assert named_by_directives(recorder) == []


def test_a_merge_target_is_held_until_the_absorbed_leaf_is_removed():
    """Three leaves below ``leaf_min``, added in turn.  The pass that adds
    ``/2`` merges ``/1`` into it, and ``/2`` is then held as a directed
    leaf is, so the pass that adds ``/3`` does not merge ``/2`` into
    ``/3`` while ``/1``'s members are sent to ``/2``.  Once ``/1``'s
    ``RemoveLeaf`` applies, ``/2`` is free again."""
    recorder = Recorder()
    policy = Policy(ME, HierarchyState("svc", SIZE), recorder)
    directed = []
    ops = [AddLeaf(f"{ME}/{i}", size=1, contacts=(f"w{i}",)) for i in (1, 2, 3)]
    for op in ops + [RemoveLeaf(f"{ME}/1")]:
        recorder.calls = []
        policy.on_op(op, 0.0)
        directed.append(named_by_directives(recorder))
    assert directed == [[], [f"{ME}/1", f"{ME}/2"], [], [f"{ME}/2", f"{ME}/3"]]


# -- a removed leaf keeps no mark ----------------------------------------------------


def test_a_removed_leaf_keeps_no_mark():
    """After the load scenario's hot split and cold merge, every mark
    names a live leaf or one still being created: leaf ids are never
    reused, so a merged-away leaf's cooldown and split start go with it."""
    result = run_scenario()
    policy = result["manager"].policy
    assert any(event == "merge-directed" for event, _, _ in result["reorgs"])
    known = set(policy.state.leaves) | set(policy._creating)
    for name in Policy.MARKS:
        stray = set(getattr(policy, name)) - known
        assert not stray, f"{name} keeps removed leaves {sorted(stray)}"


# -- item 17's oracle: a fresh policy over the live manager's inputs ---------------


class Tap:
    """Forwards a port's calls and logs the decisions among them."""

    def __init__(self, port, log: List) -> None:
        self.port = port
        self.log = log

    def __getattr__(self, name):
        method = getattr(self.port, name)
        if not callable(method):
            return method

        def call(*args, **kwargs):
            if name in ("_propose", "_direct"):
                self.log.append(("port", name.lstrip("_"), args[-1]))
            return method(*args, **kwargs)

        return call


@pytest.fixture(scope="module")
def storm_log():
    """The 256-joiner storm of ``tests/test_join_storm.py``, with every
    input its manager's policy took (the time, the leaf counter before
    it) and every decision it made.  A suspicion reaches the policy
    through the detector's listener, not through these inputs; the storm
    has none."""
    env, leaders, _, members = storm(256)
    manager = manager_of(leaders)
    policy = manager.policy
    log: List = []
    policy.port = Tap(manager, log)
    for name in ("on_op", "on_join", "on_report", "on_fill_tick"):
        inner = getattr(policy, name)

        def recorded(*args, _name=name, _inner=inner):
            log.append(("input", _name, args, env.now, policy._leaf_counter))
            reply = _inner(*args)
            if reply is not None:
                log.append(("port", "reply", reply))
            return reply

        setattr(policy, name, recorded)
    run_until_placed(env, members, limit=30.0)
    env.run_for(2.0)
    return log


def _decisions_after(log: List, crash_at: float):
    """The live decisions after ``crash_at`` and a fresh policy's, input
    by input: a replica that followed the ops with no marks takes over
    as manager at the first input past the crash."""
    recorder = Recorder(is_manager=False)
    fresh = Policy(ME, HierarchyState("svc", STORM), recorder)
    live: List = []
    replayed: List = []
    for entry in log:
        if entry[0] == "port":
            if recorder.is_manager:
                live.append(entry[1:])
            continue
        _, name, args, now, counter = entry
        if now >= crash_at and not recorder.is_manager:
            recorder.is_manager = True
            fresh._leaf_counter = counter
            fresh.rewatch()
        if name != "on_op" and not recorder.is_manager:
            continue
        recorder.calls = []
        reply = getattr(fresh, name)(*args)
        replayed += [call[:1] + call[-1:] for call in recorder.calls
                     if call[0] in ("propose", "direct")]
        if reply is not None:
            replayed.append(("reply", reply))
    return live, replayed


@pytest.mark.xfail(strict=True, reason="item 17")
@pytest.mark.parametrize("crash_at", [0.6, 0.9])
def test_a_fresh_policy_over_the_op_log_decides_as_the_live_manager(
    storm_log, crash_at
):
    live, replayed = _decisions_after(storm_log, crash_at)
    assert live
    assert replayed == live
