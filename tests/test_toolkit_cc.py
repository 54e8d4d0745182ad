"""Tests for the coordinator-cohort tool (flat groups)."""

import itertools

from repro.membership import GroupNode, build_group
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import CCReply, CCRequest, CoordinatorCohortClient, attach_service


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


def held(server):
    """The (client, request id) of every result a server holds."""
    return {
        (client, request_id)
        for client, (_, results, _) in server.records().items()
        for request_id in results
    }


def pending(server):
    """The (client, request id) of every write a server holds unanswered."""
    return {
        (client, request_id)
        for client, (_, _, writes) in server.records().items()
        for request_id in writes
    }


def test_cohorts_store_results():
    env, nodes, members, servers, client = build(4)
    rid = client.request("x", lambda r: None)
    env.run_for(3.0)
    for server in servers[1:]:
        _, results, _ = server.records()["client"]
        assert results == {rid: ("done", "x")}


def cc_counts(delta):
    return tuple(
        delta.by_category.get(c, 0) for c in ("cc-request", "cc-reply", "cc-result")
    )


def test_resiliency_bounds_the_request_to_2r():
    """With a stated resiliency the request involves the cohort set only:
    r requests + 1 reply + r-1 result copies, whatever the group size."""
    env, nodes, members, servers, client = build(9, resiliency=3)
    warm_up = client.request("warm-up", lambda r: None)  # learns the set (GetMembers)
    env.run_for(1.0)
    assert [i for i, s in enumerate(servers) if held(s)] == [0, 1, 2]
    before = env.network.stats.snapshot()
    done = []
    rid = client.request("x", done.append)
    env.run_for(3.0)
    assert done == [("done", "x")]
    assert cc_counts(env.network.stats.since(before)) == (3, 1, 2)
    # The coordinator + 2 cohorts hold x's result, nobody else; x told
    # them the warm-up was answered, so they let its result go.
    holders = [i for i, s in enumerate(servers) if held(s) == {("client", rid)}]
    assert holders == [0, 1, 2]
    assert all(("client", warm_up) not in held(s) for s in servers)
    assert all(not s.records() for s in servers[3:])


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


# -- a write is held under (client, request id) ---------------------------------


def two_clients_with_equal_ids():
    """A group of 5 with a cohort set of 3, and two warmed-up clients whose
    next requests are both numbered 7, as two processes' own counters
    would number them.  Each counter is set before its client's first
    request, as a server drops a write numbered below one its client has
    finished.  The handler answers with who asked for what."""
    executed = []

    def handler(payload, client):
        executed.append((client, payload))
        return (client, payload)

    env, nodes, members, servers, first = build(5, resiliency=3, handler=handler)

    def numbered_from_6(node):
        # Each deployed process numbers from its own environment's
        # counter: build the client while the run's stands at 6.
        env.ids["cc"] = itertools.count(6)
        return CoordinatorCohortClient(
            node, "svc", contacts=("svc-0",), rpc=node.runtime.rpc
        )

    a = numbered_from_6(first.process)
    b = numbered_from_6(GroupNode(env, "client-b"))
    for client in (a, b):
        client.request("warm-up", lambda r: None)  # learns the set
    env.run_for(1.0)
    executed.clear()
    return env, servers, a, b, executed


def test_two_clients_with_equal_ids_each_get_their_own_write():
    env, servers, a, b, executed = two_clients_with_equal_ids()
    ra, rb = [], []
    assert a.request("a", ra.append) == b.request("b", rb.append) == 7
    env.run_for(1.0)
    assert ra == [("client", "a")] and rb == [("client-b", "b")]
    assert sorted(executed) == [("client", "a"), ("client-b", "b")]
    for server in servers[:3]:
        assert {("client", 7), ("client-b", 7)} <= held(server)


def test_a_write_passed_on_outside_the_set_is_answered_to_its_client():
    """Both members of a stale set pass the write on, naming the client:
    it runs once, and the reply goes to the client, not to a forwarder."""
    env, servers, a, b, executed = two_clients_with_equal_ids()
    a._members = ("svc-3", "svc-4")  # a stale set, wholly outside
    a._view_seq -= 1
    ra, rb = [], []
    a.request("a", ra.append)
    env.run_for(0.1)
    b.request("b", rb.append)
    env.run_for(1.0)
    assert ra == [("client", "a")] and rb == [("client-b", "b")]
    assert sorted(executed) == [("client", "a"), ("client-b", "b")]
    assert a._members == ("svc-0", "svc-1", "svc-2")  # corrected


def test_a_write_retried_after_execution_is_answered_from_its_result():
    env, servers, a, b, executed = two_clients_with_equal_ids()
    a.request("a", lambda r: None)
    b.request("b", lambda r: None)
    env.run_for(1.0)
    replies = []

    def tap(_event, envelope):
        if envelope.dst == "client" and isinstance(envelope.payload, CCReply):
            replies.append((envelope.payload.request_id, envelope.payload.result))

    env.network.add_tap(tap, events=("send",))
    a.process.multicast(a._members, CCRequest("svc", 7, "a", a._view_seq))
    env.run_for(1.0)
    assert replies == [(7, ("client", "a"))]  # the coordinator's, once
    assert sorted(executed) == [("client", "a"), ("client-b", "b")]


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
    assert all(not s.records() for s in servers[:3])


def test_a_finished_write_never_runs_again():
    """Each write tells the set which of its client's writes are finished,
    so a set member holds the client's outstanding window and nothing
    older, and a late copy of a finished write runs nowhere."""
    env, nodes, members, servers, client = build(3)
    window = 0
    first = client.request(0, lambda r: None)
    for i in range(1, 10_000):
        client.request(i, lambda r: None)
        window = max(window, len(client._dispatch.outstanding))
        if i % 500 == 0:
            env.run_for(0.05)
    env.run_for(1.0)
    assert servers[0].requests_executed == 10_000
    for server in servers:
        _, results, _ = server.records()["client"]
        assert 0 < len(results) <= window
    assert all(not pending(s) for s in servers)
    replies = []

    def tap(_event, envelope):
        if envelope.dst == "client" and isinstance(envelope.payload, CCReply):
            replies.append(envelope.payload.request_id)

    env.network.add_tap(tap, events=("send",))
    client.process.multicast(
        members[0].view.members,
        CCRequest(group="svc", request_id=first, payload=0, client="client"),
    )
    env.run_for(1.0)
    assert total_executed(servers) == 10_000
    assert replies == []  # a stale copy is not answered either


def test_a_retried_and_hedged_write_is_answered_from_its_result_while_newer_writes_complete():
    """The first reply to a write is lost.  While the client waits, its
    newer writes complete, and each still names the lost one as
    unfinished, so the set keeps its result: the hedge to rank 1 is
    ignored there (no probe), and the timer retry is answered by the
    coordinator from the result, without running the write again.  The
    next write after that lets every result but its own go."""
    from repro.failure.detector import Probe

    env, nodes, members, servers, client = build(5, resiliency=3)
    for i in range(64):  # a batch of clean replies sets the hedge delay
        client.request(("warm-up", i), lambda r: None)
    env.run_for(1.0)
    assert client._dispatch.hedge_delay is not None
    probes, to_rank_1 = [], []

    def tap(_event, envelope):
        if isinstance(envelope.payload, Probe):
            probes.append(envelope)
        elif isinstance(envelope.payload, CCRequest) and envelope.dst == "svc-1":
            to_rank_1.append(envelope.payload.request_id)

    env.network.add_tap(tap, events=("send",))
    answers = []
    lost = client.request("lost", answers.append)
    answer = client._on_reply

    def lose_first_reply(reply, sender):
        if reply.request_id == lost and not hasattr(lose_first_reply, "done"):
            lose_first_reply.done = True
            return
        answer(reply, sender)

    client._on_reply = lose_first_reply
    env.run_for(0.1)  # executed, answered, the answer lost, hedged
    assert to_rank_1 == [lost, lost]
    newer = [client.request(("newer", i), answers.append) for i in range(5)]
    env.run_for(0.1)
    assert answers == [("done", ("newer", i)) for i in range(5)]
    for server in servers[:3]:
        assert held(server) == {("client", rid) for rid in [lost] + newer}
    env.run_for(1.0)  # the retry timer fires
    assert answers[-1] == ("done", "lost")
    assert total_executed(servers) == 64 + 1 + 5
    assert probes == []
    last = client.request("last", answers.append)
    env.run_for(0.1)
    assert answers[-1] == ("done", "last")
    assert all(held(s) == {("client", last)} for s in servers[:3])


def test_a_client_that_recovers_gives_up_the_writes_its_crash_stranded():
    """The client crashes with a write in flight: the coordinator runs
    it, and the answer finds the client down.  The crash cancelled the
    write's retry timer, and the write dies with its incarnation: neither
    callback runs, and the client the application rebuilds on the
    successor starts with nothing outstanding.  It pins no floor then: the
    next writes name nothing older, and the set holds only their window."""
    env, nodes, members, servers, client = build(3)
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    answers, failures = [], []
    client.request("stranded", answers.append, on_failure=lambda: failures.append(1))
    client.process.crash()
    env.run_for(1.0)
    node = client.process.recover()
    client = CoordinatorCohortClient(
        node, "svc", contacts=client.contacts, rpc=node.runtime.rpc
    )
    env.run_for(1.0)
    assert failures == [] and answers == []
    assert not client._dispatch.outstanding
    lags = []

    def tap(_event, envelope):
        if isinstance(envelope.payload, CCRequest) and envelope.src == "client":
            lags.append(envelope.payload.lag)

    env.network.add_tap(tap, events=("send",))
    for i in range(5):
        last = client.request(i, answers.append)
        env.run_for(0.1)
    assert answers == [("done", i) for i in range(5)]
    assert lags == [0] * 5 * 3
    assert total_executed(servers) == 1 + 1 + 5
    assert all(held(s) == {("client", last)} for s in servers)


def test_a_write_whose_result_copy_was_lost_is_not_taken_over_once_its_client_moved_on():
    """Rank 1 misses the result copy of a write and holds it pending.  The
    client has its answer and sends a newer write, which raises rank 1's
    floor past the first: when the coordinator then dies, rank 1 takes
    over and does not run the first write a second time."""
    env, nodes, members, servers, client = build(3)
    client.request("warm-up", lambda r: None)
    env.run_for(1.0)
    note = servers[1].on_result_note
    lost = []

    def lose_first(result_note):
        if not lost:
            lost.append(result_note.request_id)
            return
        note(result_note)

    servers[1].on_result_note = lose_first
    answers = []
    first = client.request("first", answers.append)
    env.run_for(0.1)
    assert lost == [first] and pending(servers[1]) == {("client", first)}
    client.request("second", answers.append)
    env.run_for(0.1)
    assert answers == [("done", "first"), ("done", "second")]
    assert not pending(servers[1])
    nodes[0].crash()
    env.run_for(10.0)
    assert members[1].view.coordinator == "svc-1"
    assert servers[1].takeovers == 0
    assert total_executed(servers) == 1 + 2
    assert answers == [("done", "first"), ("done", "second")]


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
