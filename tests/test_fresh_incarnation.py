"""A recovered process is a new process (fail-stop, as ISIS assumed).

A node is crashed at every 0.05 s of a join, a write and a split.  While
it is down nothing leaves its address and its dead incarnation holds no
timer; once it is back, nothing reachable from the successor's stack,
or from the layers the application rebuilt on it, holds the dead
process; and the successor then joins, writes or is placed like any
newcomer.
"""

from functools import partial
from types import BuiltinMethodType, FunctionType, MethodType, ModuleType

import pytest

from repro.core import (
    LargeGroupMember,
    LargeGroupParams,
    build_large_group,
    build_leader_group,
)
from repro.failure import HeartbeatDetector
from repro.membership import GroupNode, build_group
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import CoordinatorCohortClient, attach_service

STEP = 0.05
DOWN = 3.0  # past every retry and timeout a stale timer could still run

# The environment's engine, network, sinks and registry are shared by
# every incarnation; a walk stops at them.
SHARED = ("repro.sim", "repro.runtime", "repro.net", "repro.proc.env",
          "repro.trace", "repro.metrics", "weakref")
ATOMS = (str, bytes, int, float, bool, type(None), type, ModuleType)


def reaches(roots, target) -> bool:
    """Whether ``target`` is reachable from ``roots`` through attributes,
    containers, bound methods, closures and default arguments, without
    passing through what the environment shares."""
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if isinstance(obj, ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj).__module__.startswith(SHARED):
            continue
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, (MethodType, BuiltinMethodType)):
            stack.append(obj.__self__)
            stack.append(getattr(obj, "__func__", None))
        elif isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, partial):
            stack.extend((obj.func, *obj.args, *obj.keywords.values()))
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    stack.append(getattr(obj, slot, None))
    return False


def crash_and_recover(env, address, offset):
    """Crash ``address`` ``offset`` after now and keep it down for
    ``DOWN``: nothing may leave it meanwhile, and its dead incarnation
    ends with no timer.  Returns (dead, successor)."""
    env.run_for(offset)
    dead = env.process(address)
    dead.crash()
    sent = []
    env.network.add_tap(
        lambda _event, envelope: envelope.src == address and sent.append(envelope),
        events=("send",),
    )
    env.run_for(DOWN)
    assert sent == [], offset
    assert dead._timers == {}, offset
    successor = dead.recover()
    assert successor.incarnation == dead.incarnation + 1
    return dead, successor


def assert_fresh(successor, dead, *layers):
    runtime = successor.runtime
    roots = (successor, runtime, runtime.transport, runtime.rpc,
             runtime.detector, *layers)
    assert not reaches(roots, dead)


def offsets(window):
    return [round(STEP * k, 2) for k in range(int(round(window / STEP)))]


@pytest.mark.parametrize("offset", offsets(0.3))
def test_a_crash_during_a_join(offset):
    env = Environment(seed=1, latency=FixedLatency(0.01))
    _nodes, members = build_group(env, "g", 3)
    GroupNode(env, "j").runtime.join_group("g", contact="g-0")
    dead, node = crash_and_recover(env, "j", offset)
    assert_fresh(node, dead)
    assert not node.runtime.has_group("g")
    rejoined = node.runtime.join_group("g", contact="g-0")
    env.run_for(5.0)
    assert rejoined.is_member
    assert members[0].view.members == ("g-0", "g-1", "g-2", "j")


@pytest.mark.parametrize("offset", offsets(0.3))
def test_a_crash_during_a_write(offset):
    env = Environment(seed=1, latency=FixedLatency(0.01))
    _nodes, members = build_group(env, "svc", 3)
    attach_service(members, lambda payload, client: ("done", payload))

    def client_on(node):
        return CoordinatorCohortClient(
            node, "svc", contacts=("svc-0", "svc-1", "svc-2"),
            rpc=node.runtime.rpc,
        )

    answers = []
    client_on(GroupNode(env, "c")).request("first", answers.append)
    dead, node = crash_and_recover(env, "c", offset)
    client = client_on(node)
    assert_fresh(node, dead, client)
    client.request("second", answers.append)
    env.run_for(2.0)
    assert answers[-1] == ("done", "second")
    assert ("done", "first") not in answers[1:]  # the old call died


@pytest.mark.parametrize("offset", offsets(1.1))
def test_a_crash_of_the_leaf_coordinator_during_a_split(offset):
    """A fifth worker overfills a leaf of four (split above 4): its
    coordinator, crashed anywhere in that, is placed again once back."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=2)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    workers = build_large_group(env, "svc", 4, params, contacts)
    env.run_for(3.0)
    victim = next(w for w in workers if w.is_leaf_coordinator)
    joiner = LargeGroupMember(GroupNode(env, "svc-w-4"), "svc", contacts, params=params)
    joiner.join()
    dead, node = crash_and_recover(env, victim.me, offset)
    worker = LargeGroupMember(node, "svc", contacts, params=params)
    assert_fresh(node, dead, worker)
    worker.join()
    env.run_for(10.0)
    assert worker.is_member
    manager = next(r for r in leaders if r.is_manager)
    assert manager.state.total_size == 5


def test_a_stale_large_group_member_sends_nothing():
    env = Environment(seed=1, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=2, fanout=4)
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    stale = LargeGroupMember(GroupNode(env, "w"), "svc", contacts, params=params)
    stale.node.crash()
    stale.node.recover()
    sent = []
    env.network.add_tap(lambda _event, envelope: sent.append(envelope), events=("send",))
    stale.join()
    env.run_for(5.0)
    assert [e for e in sent if e.src == "w"] == []
    assert not stale.is_member and stale.node._timers == {}


def _coordinator_out(seed, recover_after):
    """A group of 8 under heartbeats; its coordinator crashes (and, if
    ``recover_after`` is set, comes back that much later without
    rejoining).  Returns when the last survivor installed a view
    without it, counted from the crash, or None."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    _nodes, members = build_group(
        env, "g", 8,
        detector_factory=lambda node: HeartbeatDetector(
            node, interval=0.2, suspect_after=1.0
        ),
    )
    env.run_for(2.0)
    crashed_at = env.now
    env.crash("g-0")
    if recover_after is not None:
        env.run_for(recover_after)
        env.process("g-0").recover()
    for _ in range(200):
        if all(not m.view.contains("g-0") for m in members[1:]):
            return env.now - crashed_at
        env.run_for(0.05)
    return None


@pytest.mark.xfail(strict=True, reason="item 14")
def test_a_coordinator_back_before_suspect_after_is_still_removed():
    """ISIS's fail-stop rule: the process that comes back is not the one
    that crashed, so the survivors must remove the old one as fast as if
    it had stayed down.  The detector does not yet tell incarnations
    apart: the new one answers the old one's watcher."""
    plain = _coordinator_out(seed=1, recover_after=None)
    assert plain is not None
    back = _coordinator_out(seed=1, recover_after=0.5)
    assert back is not None and back <= plain
