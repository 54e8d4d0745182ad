"""Requests outlive their coordinator, and a read costs 2 messages
(docs/hierarchy.md, "Requests during a coordinator outage").

A client sends a declared read to the coordinator alone and a write to
the whole cohort set.  If it has heard nothing for its hedge delay, 1.25
x the p95 of its latest batch of ``HEDGE_SAMPLES`` clean replies, it
sends the same request, payload and all, to rank 1 of the set.  A read
is answered there from rank 1's own replica; it is never pending, never
taken over, never copied and never remembered.  A write is executed by
the coordinator only: rank 1, which holds it pending, takes the second
copy as evidence and probes the coordinator, and only its own failed
probe suspects it.  The view change then makes rank 1 coordinator, and
its takeover runs the write once.

These tests hold the pieces the benchmark cannot see on its own: the
delay rule itself; no hedge or probe without a fault; gets answered by
rank 1 within the hedge delay plus one round trip, with the delay close
to the failure-free tail; puts within the hedge delay plus ``PROBES``
probe rounds plus one flush; no write ever executed off the coordinator;
a slow but live coordinator neither suspected nor replaced; a hedged
read executed once across a later takeover; what a hedged read may
return; that no get is ever held; that a forwarded read runs once; that
a read retried before the first hedge delay moves to the next rank; and
that a client declaring no reads gets one execution from a server that
does.
"""

from collections import Counter

import pytest

from repro.core import LargeGroupParams, build_large_group, build_leader_group
from repro.core.views import CohortSet
from repro.failure.detector import PROBES, HeartbeatDetector, Probe
from repro.membership import GroupNode, build_group
from repro.net import FixedLatency, LanLatency
from repro.net.message import DEFAULT_PAYLOAD_BYTES, HEADER_BYTES
from repro.proc import Environment
from repro.sim.rand import SimRandom
from repro.toolkit import (
    CCRequest,
    CoordinatorCohortClient,
    CoordinatorCohortServer,
    PartitionedStoreClient,
    PartitionedStoreServer,
    ReplicatedDict,
)
from repro.toolkit.coordinator_cohort import HEDGE_SAMPLES, _CCDispatch
from tests.test_heartbeat_push import Detour

RTT = 0.004  # FixedLatency(0.002), there and back
INTERVAL = 0.2
PROBE_WINDOW = PROBES * INTERVAL / 4  # first probe to suspicion: 0.2 s
FLUSH = 3 * RTT  # suspicion to the takeover's reply: flush, install, reply


def node_kwargs():
    # The benchmark's detector: a crash is suspected after a full second,
    # so the outage a hedge shortens is long and easy to see.
    return dict(
        detector_factory=lambda node: HeartbeatDetector(
            node, interval=INTERVAL, suspect_after=1.0
        ),
        gossip_interval=0.5,
    )


def requests_sent(env, client_address):
    """A list that fills with (destination, request id) of every request
    the client sends; a forwarded copy is not the client's."""
    sent = []

    def tap(_event, envelope):
        if isinstance(envelope.payload, CCRequest) and envelope.src == client_address:
            sent.append((envelope.dst, envelope.payload.request_id))

    env.network.add_tap(tap, events=("send",))
    return sent


def probes_sent(env):
    """A list that fills with (time, prober, probed) of every Probe."""
    sent = []

    def tap(_event, envelope):
        if isinstance(envelope.payload, Probe):
            sent.append((env.now, envelope.src, envelope.dst))

    env.network.add_tap(tap, events=("send",))
    return sent


# -- a flat replicated table behind the coordinator-cohort tool ----------------------


def is_get(payload):
    return payload[0] == "get"


def flat_store(n=6, latency=None, seed=1, is_read=is_get, client_is_read=None,
               **client_kwargs):
    """``client_is_read`` defaults to the servers' own ``is_read``."""
    env = Environment(seed=seed, latency=latency or FixedLatency(0.002))
    nodes, members = build_group(env, "svc", n, **node_kwargs())
    servers = []
    for member in members:
        table = ReplicatedDict(member, "t")

        def handle(payload, client, table=table):
            if payload[0] == "put":
                table.put(payload[1], payload[2])
                return "ok"
            return table.get(payload[1])

        servers.append(
            CoordinatorCohortServer(member, handle, resiliency=3, is_read=is_read)
        )
    client_node = GroupNode(env, "client", **node_kwargs())
    client = CoordinatorCohortClient(
        client_node, "svc", contacts=("svc-0",), rpc=client_node.runtime.rpc,
        is_read=client_is_read or is_read, **client_kwargs,
    )
    return env, members, servers, client


def warm_up(env, client, count=HEDGE_SAMPLES):
    """Enough clean replies for the client to derive its hedge delay."""
    for i in range(count):
        client.request(("put", "k", 0) if i == 0 else ("get", "k"), lambda r: None)
    env.run_for(1.0)
    delay = client._dispatch.hedge_delay
    assert delay is not None
    return delay


def test_the_hedge_delay_is_a_quarter_over_the_p95_of_each_batch():
    """1.25 x the 61st of 64 clean replies, recomputed as each batch
    fills; the three slowest replies of a batch never move it."""
    env = Environment(seed=1, latency=FixedLatency(0.002))
    node = GroupNode(env, "client")
    dispatch = _CCDispatch.for_process(node, rpc=node.runtime.rpc)
    rng = SimRandom(5)
    batch = [0.001 * (i + 1) for i in range(HEDGE_SAMPLES)]
    rng.shuffle(batch)
    for latency in batch[:-1]:
        dispatch.note_latency(latency)
    assert dispatch.hedge_delay is None  # no hedge before the first batch
    dispatch.note_latency(batch[-1])
    assert dispatch.hedge_delay == pytest.approx(1.25 * 0.061)
    # Three outliers in place of the three slowest: the delay stays put,
    # and only a full batch changes it.
    outliers = [1.0, 5.0, 30.0] + sorted(batch)[: HEDGE_SAMPLES - 3]
    rng.shuffle(outliers)
    for latency in outliers:
        dispatch.note_latency(latency)
        assert dispatch.hedge_delay == pytest.approx(1.25 * 0.061)
    # A fourth outlier is the p95: the slowest three are still ignored.
    for latency in [1.0, 2.0, 5.0, 30.0] + sorted(batch)[: HEDGE_SAMPLES - 4]:
        dispatch.note_latency(latency)
    assert dispatch.hedge_delay == pytest.approx(1.25 * 1.0)


def test_a_put_is_never_executed_off_the_coordinator():
    """A put caught by a crash is hedged to rank 1, which probes and
    executes nothing; the takeover after the view change runs it once, at
    rank 1 as the new coordinator, well inside ``suspect_after``."""
    env, members, servers, client = flat_store()
    delay = warm_up(env, client)
    executed = [s.requests_executed for s in servers]
    at_execution = []  # (op, rank 1's coordinator when rank 1 ran it)
    inner = servers[1].handler

    def handler(payload, sender):
        at_execution.append((payload[0], members[1].view.coordinator))
        return inner(payload, sender)

    servers[1].handler = handler
    sent = requests_sent(env, "client")
    probes = probes_sent(env)
    env.crash("svc-0")
    start = env.now
    put_reply, get_reply = [], []
    put_id = client.request(("put", "k", 1), lambda r: put_reply.append((r, env.now - start)))
    get_id = client.request(("get", "k"), get_reply.append)
    env.run_for(delay + RTT)
    # The put went to the whole set and, as its hedge, to rank 1 again; the
    # get to the coordinator and then to rank 1, which answered it.
    assert sorted(sent) == sorted([
        ("svc-0", put_id), ("svc-1", put_id), ("svc-2", put_id), ("svc-1", put_id),
        ("svc-0", get_id), ("svc-1", get_id),
    ])
    assert get_reply == [0] and put_reply == []
    assert probes == [(pytest.approx(start + delay + RTT / 2), "svc-1", "svc-0")]
    # The put sent again to both cohorts, by hand: rank 1 already probes,
    # rank 2 watches rank 1 and not the coordinator, so its probe is a
    # no-op, and still nobody executes it.
    request = CCRequest(group="svc", request_id=put_id, payload=("put", "k", 1),
                        client="client", view_seq=client._view_seq)
    client.process.multicast(("svc-1", "svc-2"), request)
    env.run_for(PROBE_WINDOW - RTT)
    assert put_reply == []
    assert [s.requests_executed - e for s, e in zip(servers, executed)] == [
        0, 1, 0, 0, 0, 0,
    ]
    # Rank 1's last probe went unanswered: it suspects, installs the view
    # without the coordinator and takes the put over, once.
    env.run_for(2.0)
    assert [r for r, _ in put_reply] == ["ok"]
    assert PROBE_WINDOW < put_reply[0][1] <= delay + RTT / 2 + PROBE_WINDOW + FLUSH
    assert put_reply[0][1] < 0.25  # was suspect_after and more: 0.95 s
    # Walking past the coordinator, rank 1 probes its new predecessor once.
    assert Counter((prober, probed) for _, prober, probed in probes) == {
        ("svc-1", "svc-0"): PROBES, ("svc-1", "svc-5"): 1,
    }
    assert servers[1].takeovers == 1
    assert [s.requests_executed - e for s, e in zip(servers, executed)] == [
        0, 2, 0, 0, 0, 0,
    ]
    assert at_execution == [("get", "svc-0"), ("put", "svc-1")]


def test_a_get_caught_by_a_crash_waits_one_tail_and_one_round_trip():
    """With jittered links the hedge delay sits within 1.5 x the slowest
    failure-free reply, and every get caught by a crash is answered by
    rank 1 within that delay plus one round trip."""
    lan = LanLatency()
    # A coordinator-cohort message is the default payload plus a header;
    # jitter stretches each hop by at most ``lan.jitter``.
    longest_rtt = 2 * (1 + lan.jitter) * (
        lan.base + lan.per_byte * (DEFAULT_PAYLOAD_BYTES + HEADER_BYTES)
    )
    env, members, servers, client = flat_store(latency=lan, seed=3)
    client.request(("put", "k", 0), lambda r: None)
    env.run_for(0.5)
    sent = requests_sent(env, "client")

    def get(latencies):
        start = env.now
        client.request(("get", "k"), lambda r: latencies.append(env.now - start))

    healthy = []
    for i in range(2 * HEDGE_SAMPLES):
        env.scheduler.after(0.005 * i, lambda: get(healthy))
    env.run_for(1.0)
    assert len(healthy) == len(sent) == 2 * HEDGE_SAMPLES  # no hedge
    delay = client._dispatch.hedge_delay
    assert max(healthy) <= longest_rtt < delay <= 1.5 * max(healthy)

    executed = servers[1].requests_executed
    env.crash("svc-0")
    caught = []
    for i in range(20):
        env.scheduler.after(0.01 * i, lambda: get(caught))
    env.run_for(0.3)
    assert members[1].view.coordinator == "svc-0"  # not yet detected
    assert len(caught) == 20
    assert max(caught) <= delay + longest_rtt + 1e-9
    assert servers[1].requests_executed - executed == 20


def test_a_slow_but_live_coordinator_answers_the_probe_and_keeps_its_place():
    """The coordinator hears the put late, long after the client's hedge:
    rank 1's probe is answered at once, nobody suspects anyone, no view
    changes, and the coordinator runs the put when it arrives."""
    latency = Detour()
    env, members, servers, client = flat_store(latency=latency)
    delay = warm_up(env, client)
    suspicions = []
    for member in members:
        member.runtime.detector.add_listener(suspicions.append)
    views = [m.view.seq for m in members]
    executed = [s.requests_executed for s in servers]
    probes = probes_sent(env)
    latency.slow["client", "svc-0"] = 0.3
    start = env.now
    put_reply = []
    client.request(("put", "k", 1), lambda r: put_reply.append((r, env.now - start)))
    env.run_for(0.1)
    assert probes == [(pytest.approx(start + delay + RTT / 2), "svc-1", "svc-0")]
    _, _, pending = servers[1].records()["client"]
    assert put_reply == [] and pending
    env.run_for(2.0)
    assert put_reply == [("ok", pytest.approx(0.3 + RTT / 2))]
    assert len(probes) == 1 and suspicions == []
    assert [m.view.seq for m in members] == views
    assert [s.requests_executed - e for s, e in zip(servers, executed)] == [
        1, 0, 0, 0, 0, 0,
    ]
    assert not any(s.takeovers for s in servers)


def test_a_read_sent_outside_the_set_is_executed_once_and_answered_once():
    """A member outside the set forwards a read to the coordinator alone
    (every set member would run it) and a write to the whole set."""
    env, members, servers, client = flat_store()
    env.run_for(0.5)
    client._fetch_members(lambda: None, lambda: None)
    env.run_for(0.1)
    client._members = ("svc-4", "svc-5")  # a stale set, wholly outside
    client._view_seq -= 1
    sent = requests_sent(env, "svc-4")
    before = env.network.stats.snapshot()
    replies = []
    get_id = client.request(("get", "k"), replies.append)
    env.run_for(0.1)
    assert replies == [None]
    assert sent == [("svc-0", get_id)]
    assert [s.requests_executed for s in servers] == [1, 0, 0, 0, 0, 0]
    assert env.network.stats.since(before).by_category["cc-reply"] == 1
    assert client._members == ("svc-0", "svc-1", "svc-2")  # corrected

    client._members = ("svc-4", "svc-5")
    client._view_seq -= 1
    put_id = client.request(("put", "k", 1), replies.append)
    env.run_for(0.1)
    assert replies == [None, "ok"]
    assert sorted(sent[1:]) == [("svc-0", put_id), ("svc-1", put_id), ("svc-2", put_id)]
    assert [s.requests_executed for s in servers] == [2, 0, 0, 0, 0, 0]


def test_hedged_or_not_an_answered_request_leaves_no_timer_behind():
    """The hedge timer and the retry timer that follows it are one engine
    handle at a time, and the reply cancels whichever is armed: once the
    replies are in, no call is left and the scheduler's ``pending`` is
    back to its count before the burst (the background being settled)."""
    env, members, servers, client = flat_store()
    warm_up(env, client)
    env.run_for(2.0)  # past the warm-up's acks and sweeps
    scheduler = env.scheduler

    def burst(settle):
        before = scheduler.pending
        for _ in range(50):
            client.request(("get", "k"), replies.append)
        env.run_for(settle)
        assert client._calls == {} and client._dispatch.outstanding == {}
        assert scheduler.pending == before

    replies = []
    burst(1.0)
    assert len(replies) == 50
    env.crash("svc-0")
    env.run_for(3.0)  # the view change; the client still holds the old set
    burst(1.0)  # every one hedged and answered by rank 1
    assert len(replies) == 100
    assert sum(s.requests_executed for s in servers[1:]) >= 50


def test_a_crashed_client_runs_and_sends_nothing_for_its_outstanding_calls():
    """A client crashes with calls outstanding: gets and puts whose hedge
    is armed, and on a second stub of the same process, whose timeout is
    below the hedge delay, gets whose retry is armed.  The crash cancels
    none of their timers, but a fire on a dead process does nothing: no
    hedge or retry runs, nothing is sent, and no ``on_failure`` or reply
    runs, though every stub would give up at its first retry."""
    env, members, servers, client = flat_store(max_retries=0)
    delay = warm_up(env, client)
    unhedged = CoordinatorCohortClient(
        client.process, "svc", contacts=CohortSet(("svc-0", "svc-1", "svc-2")),
        timeout=delay / 2, max_retries=0, is_read=is_get,
    )
    process = client.process
    outcomes = []
    for i in range(4):
        client.request(("get", "k"), outcomes.append, lambda: outcomes.append("failed"))
        client.request(("put", "k", i), outcomes.append, lambda: outcomes.append("failed"))
        unhedged.request(("get", "k"), outcomes.append, lambda: outcomes.append("failed"))
    handles = [c.handle for stub in (client, unhedged) for c in stub._calls.values()]
    assert len(handles) == 12 and all(h is not None and not h.cancelled for h in handles)
    process.crash()
    attempts = []
    process.send = lambda dst, payload: attempts.append((dst, payload))
    process.multicast = lambda dsts, payload: attempts.append((dsts, payload))
    sent = []
    env.network.add_tap(
        lambda _event, envelope: envelope.src == process.address and sent.append(envelope),
        events=("send",),
    )
    env.run_for(3.0)
    assert outcomes == [] and attempts == [] and sent == []
    calls = [c for stub in (client, unhedged) for c in stub._calls.values()]
    assert len(calls) == 12 and all(c.handle is None for c in calls)


def test_a_service_that_declares_no_reads_waits_for_the_takeover():
    """A get the service does not declare a read takes the write path:
    rank 1 probes on its hedge and answers only as the new coordinator."""
    env, members, servers, client = flat_store(is_read=None)
    delay = warm_up(env, client)
    env.crash("svc-0")
    replies = []
    client.request(("get", "k"), replies.append)
    env.run_for(delay + PROBE_WINDOW)
    assert replies == []
    assert servers[1].requests_executed == 0
    env.run_for(FLUSH + RTT)
    assert replies == [0]
    assert members[1].view.coordinator == "svc-1"
    assert servers[1].takeovers == 1 and servers[1].requests_executed == 1


def test_a_read_on_the_write_path_leaves_the_clients_older_write_answerable():
    """A get the service does not declare a read runs as a write, but its
    ``lag`` (always 0 on a CCRead) says nothing of the client's older
    writes: a put whose first reply was lost is still answered from its
    result by the retry, and runs once."""
    env, members, servers, client = flat_store(is_read=None, client_is_read=is_get)
    client.request(("get", "k"), lambda r: None)  # learn the set
    env.run_for(0.5)
    replies = []
    put = client.request(("put", "k", 1), replies.append)
    answer = client._on_reply

    def lose_first_reply(reply, sender):
        if reply.request_id == put and not hasattr(lose_first_reply, "done"):
            lose_first_reply.done = True
            return
        answer(reply, sender)

    client._on_reply = lose_first_reply
    env.run_for(0.1)
    client.request(("get", "k"), replies.append)
    env.run_for(0.1)
    assert replies == [1]
    env.run_for(1.5)  # the put's retry timer fires
    assert replies == [1, "ok"]
    assert servers[0].requests_executed == 3  # both gets and the put, once


def test_a_read_retried_before_the_first_hedge_delay_goes_to_the_next_rank():
    """No hedge before a process's first batch of replies, and a timeout
    shorter than detection: the retry's set still names the crashed
    coordinator, so the retry must not go there again."""
    env, members, servers, client = flat_store(timeout=0.5, max_retries=1)
    client.request(("get", "k"), lambda r: None)  # learn the set
    env.run_for(0.5)
    assert client._dispatch.hedge_delay is None
    env.crash("svc-0")
    sent = requests_sent(env, "client")
    replies = []
    get_id = client.request(("get", "k"), replies.append)
    env.run_for(0.6)
    assert members[1].view.coordinator == "svc-0"  # not yet detected
    assert replies == [None]
    assert sent == [("svc-0", get_id), ("svc-1", get_id)]
    assert servers[1].requests_executed == 1


def test_a_client_that_declares_no_reads_gets_one_execution():
    """A get sent as a plain request to the whole set takes the write path
    at a server that declares reads: the coordinator runs it once."""
    env, members, servers, client = flat_store(client_is_read=lambda p: False)
    env.run_for(0.5)
    before = env.network.stats.snapshot()
    replies = []
    client.request(("get", "k"), replies.append)
    env.run_for(0.5)
    assert replies == [None]
    assert [s.requests_executed for s in servers] == [1, 0, 0, 0, 0, 0]
    window = env.network.stats.since(before).by_category
    assert (window["cc-request"], window["cc-reply"], window["cc-result"]) == (3, 1, 2)


def test_a_hedged_get_is_executed_once_across_a_later_takeover():
    env, members, servers, client = flat_store()
    warm_up(env, client)
    before = sum(s.requests_executed for s in servers)
    env.crash("svc-0")
    replies = []
    for i in range(10):
        env.scheduler.after(0.005 * i, lambda: client.request(("get", "k"), replies.append))
    env.run_for(0.2)
    assert replies == [0] * 10
    assert servers[1].requests_executed == 10
    # Nobody holds them: there is nothing for a takeover to run.
    assert not any(
        pending for s in servers for _, _, pending in s.records().values()
    )
    env.run_for(2.0)
    assert members[1].view.coordinator == "svc-1"
    assert servers[1].takeovers == 0
    # The next crash makes rank 2 coordinator: it has nothing to re-run.
    env.crash("svc-1")
    env.run_for(3.0)
    assert members[2].view.coordinator == "svc-2"
    assert servers[2].takeovers == 0
    assert sum(s.requests_executed for s in servers) - before == 10


def test_no_hedged_get_reads_older_than_a_put_acknowledged_before_it():
    """Lossless links with jitter: a put is acknowledged after the
    coordinator multicast it, so every cohort has it before a get issued
    after the acknowledgement can be hedged to one."""
    env, members, servers, client = flat_store(latency=LanLatency(), seed=3)
    warm_up(env, client)
    keys = [f"k{i}" for i in range(4)]
    acked = {key: 0 for key in keys}
    for key in keys:
        client.request(("put", key, 0), lambda r: None)
    env.run_for(0.5)
    sent = requests_sent(env, "client")
    reads = {}  # request id -> (key, newest value acknowledged at issue, reply)
    rng = SimRandom(7)
    counter = [0]

    def put(key):
        counter[0] += 1
        value = counter[0]

        def done(reply):
            assert reply == "ok"
            acked[key] = max(acked[key], value)

        client.request(("put", key, value), done)

    def get(key):
        entry = [key, acked[key], None]
        request_id = client.request(("get", key), lambda r: entry.__setitem__(2, r))
        reads[request_id] = entry

    for step in range(600):
        key = keys[rng.randint(0, len(keys) - 1)]
        op = put if step % 3 == 0 else get
        env.scheduler.after(0.005 * step, lambda op=op, key=key: op(key))
    env.scheduler.after(1.0, lambda: env.crash("svc-0"))
    env.run_for(6.0)
    assert all(entry[2] is not None for entry in reads.values())
    sends = Counter(rid for _dst, rid in sent if rid in reads)
    hedged = [reads[rid] for rid, count in sends.items() if count > 1]
    assert len(hedged) > 20
    stale = [(key, floor, value) for key, floor, value in hedged if value < floor]
    assert not stale


# -- the hierarchical store -------------------------------------------------------


def store(latency, workers=24, seed=5):
    params = LargeGroupParams(resiliency=3, fanout=4)  # leaves of 4..8
    env = Environment(seed=seed, latency=latency)
    leaders = build_leader_group(env, "svc", params, **node_kwargs())
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(env, "svc", workers, params, contacts, **node_kwargs())
    stores = [PartitionedStoreServer(m) for m in members]
    env.run_for(5.0 + 0.3 * workers)
    assert all(m.is_member for m in members)
    return env, contacts, members, stores


def store_client(env, contacts, name="store-client"):
    node = GroupNode(env, name, **node_kwargs())
    return PartitionedStoreClient(node, node.runtime.rpc, contacts, "svc")


def mixed_load(env, clients, count, answers):
    """``count`` requests at 500 a second, one in five a put."""
    rng = SimRandom(11)
    for i in range(count):
        client = clients[i % len(clients)]
        key = f"k{rng.randint(0, 199)}"
        if rng.chance(0.2):
            action = lambda c=client, k=key, i=i: c.put(k, i, answers.append)
        else:
            action = lambda c=client, k=key: c.get(k, answers.append)
        env.scheduler.after(0.002 * i, action)


def test_no_hedge_is_sent_in_a_failure_free_store_under_load():
    for seed in (1, 2, 3):
        env, contacts, members, stores = store(LanLatency(), seed=seed)
        clients = [store_client(env, contacts, f"client-{i}") for i in range(3)]
        sent = []
        probes = probes_sent(env)

        def tap(_event, envelope):
            if isinstance(envelope.payload, CCRequest):
                sent.append((envelope.payload.request_id, envelope.payload.payload[0]))

        env.network.add_tap(tap, events=("send",))
        answers = []
        mixed_load(env, clients, 1500, answers)
        env.run_for(5.0)
        assert len(answers) == 1500
        assert all(_CCDispatch.for_process(c.process).hedge_delay for c in clients)
        # Every get went once, to its coordinator; every put once to the
        # set; and no cohort probed.
        per_request = Counter(sent)
        assert len(per_request) == 1500
        assert all(
            count == (1 if op == "get" else 3) for (_, op), count in per_request.items()
        )
        assert probes == []


def test_no_get_ever_enters_pending_or_results_at_any_member():
    env, contacts, members, stores = store(LanLatency())
    clients = [store_client(env, contacts, f"client-{i}") for i in range(3)]
    gets = set()

    def tap(_event, envelope):
        payload = envelope.payload
        if isinstance(payload, CCRequest) and payload.payload[0] == "get":
            gets.add((payload.client or envelope.src, payload.request_id))

    env.network.add_tap(tap, events=("send",))
    held = []

    def check():
        for s in stores:
            server = s.service.current
            held.extend(
                gets & {
                    (client, request_id)
                    for client, (_, results, writes) in server.records().items()
                    for request_id in (*writes, *results)
                }
            )
        env.scheduler.after(0.01, check)

    check()
    answers = []
    mixed_load(env, clients, 1500, answers)
    # A coordinator crash mid-load: hedged gets, a takeover of puts.
    env.scheduler.after(1.0, lambda: env.crash(members[0].leaf_member.view.coordinator))
    env.run_for(5.0)
    assert len(answers) == 1500 and len(gets) > 1000
    assert held == []
    assert sum(s.service.current.takeovers for s in stores if s.member.node.alive) >= 1


def test_with_the_coordinator_crashed_rank_1_answers_gets_and_the_takeover_puts():
    """Gets in about 1.25 round trips plus one, puts in about the probe
    window."""
    env, contacts, members, stores = store(FixedLatency(0.002))
    client = store_client(env, contacts)
    client.router.resolve_key("k0", lambda placement: None)
    env.run_for(0.1)
    leaf_id = members[0].leaf_id
    leaf_keys = [k for k in (f"k{i}" for i in range(400)) if client.owner_leaf(k) == leaf_id]
    for key in leaf_keys[:8]:
        client.put(key, key, lambda ok: None)
    env.run_for(0.5)
    for i in range(HEDGE_SAMPLES):
        client.get(leaf_keys[i % 8], lambda value: None)
    env.run_for(0.5)
    delay = _CCDispatch.for_process(client.process).hedge_delay
    assert delay == pytest.approx(1.25 * RTT)  # every clean reply took one round trip

    in_leaf = [(m, s) for m, s in zip(members, stores) if m.leaf_id == leaf_id]
    view = in_leaf[0][0].leaf_member.view
    rank1 = next(s for m, s in in_leaf if m.me == view.members[1])
    executed_before = rank1.service.current.requests_executed
    env.crash(view.coordinator)
    gets, puts = [], []
    for i, key in enumerate(leaf_keys[:8]):

        def issue(key=key, i=i):
            if i % 2:
                client.put(key, -i, lambda ok, t=env.now: puts.append((ok, env.now - t)))
            else:
                client.get(key, lambda value, t=env.now, key=key: gets.append(
                    (value, key, env.now - t)))

        env.scheduler.after(0.02 * i, issue)
    env.run_for(0.3)
    # Every get: rank 1, one hedge delay plus one round trip after it was sent.
    assert sorted(k for _, k, _ in gets) == sorted(leaf_keys[0:8:2])
    assert all(value == key for value, key, _ in gets)
    assert max(latency for _, _, latency in gets) <= delay + RTT + 1e-9
    # Every put: the takeover, once rank 1's probe of the first one's
    # hedge went unanswered and its view installed.
    assert [ok for ok, _ in puts] == [True] * 4
    assert max(latency for _, latency in puts) <= delay + RTT / 2 + PROBE_WINDOW + FLUSH
    assert rank1.service.current.takeovers == 4
    assert rank1.service.current.requests_executed - executed_before == 8
    env.run_for(3.0)
    assert len(puts) == 4 and rank1.service.current.takeovers == 4
