"""A2 (ablation) — what each ordering guarantee costs.

ISIS programmers choose the weakest ordering that is correct (fbcast <
cbcast < abcast).  This ablation measures, in a group of 8: logical
messages per multicast and mean delivery latency for each discipline.
abcast from a member that is not the sequencer is relayed through the
sequencer, which stamps a copy and sends it to the other GROUP - 1: one
more message, one more hop.  From the sequencer itself the data carries
its own order, so abcast costs what fbcast costs: the case of every
coordinator-cohort service, whose coordinator is the sequencer.  The
senders rotate, so the "abcast" row is the mix a symmetric application
sees (one in GROUP from the sequencer); the last row pins the sender to
rank 0.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.membership import CAUSAL, FIFO, TOTAL, build_group
from repro.metrics import LatencySample, print_table
from repro.net import FixedLatency
from repro.proc import Environment

GROUP = 8
ROUNDS = 20


def run_one(ordering: str, sender=None):
    """``ROUNDS`` multicasts, from ``members[sender]`` or each member in
    turn."""
    env = Environment(seed=7, latency=FixedLatency(0.002))
    nodes, members = build_group(env, "g", GROUP, gossip_interval=None)
    latency = LatencySample()
    sent_at = {}

    def listener(event):
        key = event.payload["k"]
        latency.add(env.now - sent_at[key])

    for m in members:
        m.add_delivery_listener(listener)
    env.run_for(0.5)
    before = env.stats_snapshot()
    for i in range(ROUNDS):
        key = f"m{i}"
        sent_at[key] = env.now
        rank = i % GROUP if sender is None else sender
        members[rank].multicast({"k": key}, ordering)
        env.run_for(0.2)
    env.run_for(2.0)
    delta = env.stats_since(before)
    per_cast = delta.by_category.get("group-data", 0) / ROUNDS
    assert latency.count == ROUNDS * GROUP
    return per_cast, latency.mean * 1000


def run_experiment():
    rows = []
    measured = {}
    for name, ordering, sender in (
        ("fbcast", FIFO, None),
        ("cbcast", CAUSAL, None),
        ("abcast", TOTAL, None),
        ("abcast from the sequencer", TOTAL, 0),
    ):
        per_cast, mean_ms = run_one(ordering, sender)
        measured[name] = (per_cast, mean_ms)
        rows.append((name, round(per_cast, 2), round(mean_ms, 2)))
    # fbcast and cbcast cost one send per destination; a relayed abcast
    # one more, the copy to the sequencer: of the 20 rotating multicasts,
    # 3 are the sequencer's (i = 0, 8, 16; GROUP - 1 each) and 17 are
    # relayed (GROUP each).
    assert measured["fbcast"][0] == GROUP - 1
    assert measured["cbcast"][0] == GROUP - 1
    assert measured["abcast"][0] == (3 * (GROUP - 1) + 17 * GROUP) / ROUNDS == 7.85
    # A relayed abcast reaches everyone but the sequencer one 2 ms hop
    # later: (3 × 1.75 + 17 × 3.75) / 20 ms.
    assert round(measured["abcast"][1], 9) == 3.45
    # ... and from the sequencer: k-1 messages, fbcast's latency
    assert measured["abcast from the sequencer"] == measured["fbcast"]
    return rows


def test_a2_ordering_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        f"A2: ordering cost in a group of {GROUP}",
        ["protocol", "messages / multicast", "mean delivery latency (ms)"],
        rows,
        note="use the weakest sufficient ordering: an abcast the sequencer "
        "did not originate is relayed through the sequencer: one more "
        "message, one more hop",
    )
