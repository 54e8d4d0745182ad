"""Tests for the coordinator-cohort tool (flat groups)."""

from repro.membership import GroupNode, build_group
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import CoordinatorCohortClient, attach_service
from repro.toolkit.coordinator_cohort import RESULTS_KEPT


def build(n, seed=1, resiliency=None, handler=None):
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "svc", n)
    handler = handler if handler else lambda payload, client: ("done", payload)
    servers = attach_service(members, handler, resiliency=resiliency)
    client_node = GroupNode(env, "client")
    client = CoordinatorCohortClient(
        client_node,
        "svc",
        contacts=tuple(f"svc-{i}" for i in range(n)),
        rpc=client_node.runtime.rpc,
    )
    return env, nodes, members, servers, client


def test_request_gets_reply():
    env, nodes, members, servers, client = build(4)
    replies = []
    client.request({"op": "read"}, replies.append)
    env.run_for(3.0)
    assert replies == [("done", {"op": "read"})]


def test_coordinator_executes_exactly_once_normally():
    env, nodes, members, servers, client = build(5)
    replies = []
    for i in range(6):
        client.request(i, replies.append)
    env.run_for(5.0)
    assert sorted(r[1] for r in replies) == list(range(6))
    assert servers[0].requests_executed == 6
    assert all(s.requests_executed == 0 for s in servers[1:])


def test_cohorts_store_results():
    env, nodes, members, servers, client = build(4)
    client.request("x", lambda r: None)
    env.run_for(3.0)
    for server in servers[1:]:
        assert len(server._results) == 1


def cc_counts(delta):
    return tuple(
        delta.by_category.get(c, 0) for c in ("cc-request", "cc-reply", "cc-result")
    )


def test_resiliency_bounds_the_request_to_2r():
    """With a stated resiliency the request involves the cohort set only:
    r requests + 1 reply + r-1 result copies, whatever the group size."""
    env, nodes, members, servers, client = build(9, resiliency=3)
    client.request("warm-up", lambda r: None)  # learns the set (GetMembers)
    env.run_for(1.0)
    before = env.network.stats.snapshot()
    done = []
    client.request("x", done.append)
    env.run_for(3.0)
    assert done == [("done", "x")]
    assert cc_counts(env.network.stats.since(before)) == (3, 1, 2)
    holders = [i for i, s in enumerate(servers) if len(s._results) == 2]
    assert holders == [0, 1, 2]  # coordinator + 2 cohorts, nobody else
    assert all(not s._results and not s._pending for s in servers[3:])


def test_a_flat_client_asks_for_the_set_before_its_first_request():
    """A flat client's ``contacts=`` are whichever members it was given, in
    no particular order — not a cohort set, as a leader-directory entry
    is.  So its first request waits one ``GetMembers``, then costs E1's
    2n."""
    from repro.toolkit import GetMembers

    env, nodes, members, servers, _ = build(5)
    env.run_for(1.0)
    node = GroupNode(env, "flat")
    client = CoordinatorCohortClient(
        node, "svc", contacts=("svc-3", "svc-1"), rpc=node.runtime.rpc
    )
    sent = []
    env.network.add_tap(
        lambda _event, e: sent.append(type(getattr(e.payload, "body", e.payload)))
        if e.src == "flat" else None,
        events=("send",),
    )
    before = env.network.stats.snapshot()
    done = []
    client.request("x", done.append)
    env.run_for(1.0)
    assert done == [("done", "x")]
    assert sent[0] is GetMembers and sent.count(GetMembers) == 1
    assert len(sent) == 1 + 5
    assert cc_counts(env.network.stats.since(before)) == (5, 1, 4)
    assert client._members == tuple(f"svc-{i}" for i in range(5))


def test_message_count_is_2n():
    """The paper's claim: a request costs 2n messages (n requests in,
    1 reply, n-1 result copies)."""
    for n in (3, 5, 9):
        env, nodes, members, servers, client = build(n)
        env.run_for(1.0)
        before = env.network.stats.snapshot()
        done = []
        client.request("w", done.append)
        env.run_for(3.0)
        delta = env.network.stats.since(before)
        data_messages = (
            delta.by_category.get("cc-request", 0)
            + delta.by_category.get("cc-reply", 0)
            + delta.by_category.get("cc-result", 0)
        )
        assert done
        assert data_messages == 2 * n, f"n={n}: {delta.by_category}"


def test_coordinator_crash_cohort_takes_over():
    env, nodes, members, servers, client = build(4)
    slow = []

    # The first executor crashes mid-request, before sending its reply or
    # the result copies: the cohorts must detect and take over.
    def killer_handler(payload, client_addr):
        slow.append(payload)
        if len(slow) == 1:
            nodes[0].crash()  # synchronous: reply send below is suppressed
        return ("served", payload)

    for server in servers:
        server.handler = killer_handler
    replies = []
    client.request("critical", replies.append)
    env.run_for(10.0)
    assert replies, "cohort must take over and reply"
    assert any(s.takeovers >= 1 for s in servers[1:])


def test_coordinator_crash_before_any_processing():
    env, nodes, members, servers, client = build(4)
    nodes[0].crash()
    replies = []
    client.request("after-crash", replies.append)
    env.run_for(10.0)
    assert replies == [("done", "after-crash")]
    assert servers[1].requests_executed == 1


def test_client_failure_callback_when_group_gone():
    env, nodes, members, servers, client = build(2)
    for node in nodes:
        node.crash()
    replies, failures = [], []
    client.request("void", replies.append, on_failure=lambda: failures.append(1))
    env.run_for(30.0)
    assert replies == []
    assert failures == [1]


def test_duplicate_request_not_reexecuted():
    env, nodes, members, servers, client = build(3)
    executions = []

    def handler(payload, client_addr):
        executions.append(payload)
        return payload

    for server in servers:
        server.handler = handler
    replies = []
    rid = client.request("once", replies.append)
    env.run_for(2.0)
    # simulate a client retransmission of the same request id
    from repro.toolkit import CCRequest

    client.process.multicast(
        tuple(members[0].view.members),
        CCRequest(group="svc", request_id=rid, payload="once", client="client"),
    )
    env.run_for(2.0)
    assert executions == ["once"]


def test_two_clients_independent():
    env, nodes, members, servers, client = build(3)
    other_node = GroupNode(env, "client2")
    other = CoordinatorCohortClient(
        other_node, "svc", contacts=("svc-1", "svc-2"), rpc=other_node.runtime.rpc
    )
    r1, r2 = [], []
    client.request("a", r1.append)
    other.request("b", r2.append)
    env.run_for(3.0)
    assert r1 == [("done", "a")]
    assert r2 == [("done", "b")]


# -- the cohort set under failures ---------------------------------------------


def total_executed(servers):
    return sum(s.requests_executed for s in servers)


def test_coordinator_and_cohort_crash_together():
    """r=3: the request is in flight to ranks 0-2 when ranks 0 and 1 die;
    the one cohort left takes over — one execution, one reply."""
    env, nodes, members, servers, client = build(6, resiliency=3)
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    replies = []
    client.request("critical", replies.append)
    env.crash("svc-0")
    env.crash("svc-1")
    env.run_for(0.9)  # inside the client's 1 s retry timer
    assert replies == [("done", "critical")]
    assert servers[2].takeovers == 1
    assert total_executed(servers) == 2  # warm-up + critical, each once
    assert client._members == members[2].view.members[:3]


def test_whole_cohort_set_crashes_retry_reaches_new_set():
    env, nodes, members, servers, client = build(9, resiliency=3)
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    replies = []
    client.request("orphan", replies.append)
    for rank in range(3):
        env.crash(f"svc-{rank}")
    env.run_for(10.0)
    # Nobody that held the request survived: the retry timer finds the
    # group again through a member outside the old set.
    assert replies == [("done", "orphan")]
    assert servers[3].requests_executed == 1
    assert total_executed(servers[3:]) == 1
    assert client._members == ("svc-3", "svc-4", "svc-5")


def test_a_timer_retry_asks_the_next_rank_before_the_dead_coordinator():
    """The client learned the set with the coordinator at contacts[0].
    A request the whole set leaves unanswered past the timeout means that
    coordinator is the likeliest casualty: the retry's GetMembers goes to
    rank 1, which answers, instead of spending a timeout on the corpse."""
    from repro.toolkit import GetMembers

    env, nodes, members, servers, _ = build(6, resiliency=3)
    node = GroupNode(env, "hasty")
    # A timeout shorter than failure detection, so the retry timer fires
    # before any takeover can answer.
    client = CoordinatorCohortClient(
        node, "svc", contacts=("svc-0",), rpc=node.runtime.rpc, timeout=0.02
    )
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    assert client.contacts[:3] == ("svc-0", "svc-1", "svc-2")
    asked = []

    def tap(_event, envelope):
        body = getattr(envelope.payload, "body", None)
        if envelope.src == "hasty" and isinstance(body, GetMembers):
            asked.append(envelope.dst)

    env.network.add_tap(tap, events=("send",))
    env.crash("svc-0")
    replies = []
    client.request("after-crash", replies.append)
    env.run_for(0.021)  # the retry timer has fired, and no other
    assert asked == ["svc-1"]
    env.run_for(3.0)
    assert replies == [("done", "after-crash")]
    assert "svc-0" not in asked
    assert total_executed(servers) == 2


def test_three_successive_coordinator_crashes_never_wait_for_the_timer():
    """Each takeover reply carries the new set, so the client is never
    more than one view behind and no request waits out its retry timer."""
    env, nodes, members, servers, client = build(9, resiliency=3)
    latencies, sent = [], []

    def issue(i):
        t0 = env.now
        sent.append(i)
        client.request(i, lambda r: latencies.append(env.now - t0))

    for i in range(60):
        env.scheduler.at(1.0 + 0.1 * i, lambda i=i: issue(i))
    # Each coordinator dies just before a request reaches it, so that
    # request waits at the cohorts for the detector and the flush.
    for k, victim in enumerate(("svc-0", "svc-1", "svc-2")):
        env.scheduler.at(2.099 + 1.5 * k, lambda v=victim: env.crash(v))
    env.run_for(10.0)
    assert len(latencies) == len(sent) == 60
    # The default detector reports a crash after 0.05 s; a flush follows.
    assert 0.05 < max(latencies) < 0.2
    assert total_executed(servers) == 60
    assert [s.takeovers for s in servers[1:4]] == [1, 1, 1]
    assert client._members == ("svc-3", "svc-4", "svc-5")
    assert client._view_seq == members[3].view.seq


def test_stale_set_with_no_current_member_is_answered_without_the_timer():
    """The client's whole set has left the group (gracefully, so it is
    still up): a member that knows the view that removed it passes the
    request on, and the reply brings the client up to date."""
    env, nodes, members, servers, client = build(9, resiliency=3)
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    assert client._members == ("svc-0", "svc-1", "svc-2")
    for rank in range(3):
        members[rank].leave()
        env.run_for(1.0)
    assert members[3].view.members[:3] == ("svc-3", "svc-4", "svc-5")
    replies = []
    client.request("late", replies.append)
    env.run_for(0.1)
    assert replies == [("done", "late")]
    assert servers[3].requests_executed == 1
    assert client._members == ("svc-3", "svc-4", "svc-5")
    # Members that left the set dropped what they held for it.
    assert all(not s._results and not s._pending for s in servers[:3])


def test_results_are_bounded_and_an_evicted_retry_reexecutes():
    env, nodes, members, servers, client = build(3)
    first = client.request(0, lambda r: None)
    for i in range(1, 10_000):
        client.request(i, lambda r: None)
        if i % 500 == 0:
            env.run_for(0.05)
    env.run_for(1.0)
    assert servers[0].requests_executed == 10_000
    assert all(len(s._results) == RESULTS_KEPT for s in servers)
    assert all(not s._pending for s in servers)
    # At-least-once: a retry of a request evicted long ago runs again.
    from repro.toolkit import CCRequest

    client.process.multicast(
        members[0].view.members,
        CCRequest(group="svc", request_id=first, payload=0, client="client"),
    )
    env.run_for(1.0)
    assert servers[0].requests_executed == 10_001


def test_answered_request_leaves_no_timer_behind():
    env, nodes, members, servers, client = build(3)
    client.request("warm-up", lambda r: None)
    env.run_for(2.0)
    pending = env.scheduler.pending
    done = []
    for i in range(50):
        client.request(i, done.append)
    env.run_for(0.5)  # answered, and well inside the 1 s retry timeout
    assert len(done) == 50
    assert env.scheduler.pending == pending
