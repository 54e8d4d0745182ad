"""Tests for symbol-partitioned market-data dissemination."""

from repro.workloads import SymbolPartitionedTrading


def build(analysts=20, seed=3, fanout=4, resiliency=2, tick_rate=2.0):
    return SymbolPartitionedTrading(
        analysts=analysts,
        feeds=2,
        tick_rate=tick_rate,
        seed=seed,
        fanout=fanout,
        resiliency=resiliency,
    )


def test_ticks_delivered_only_within_owner_leaf():
    workload = build()
    result = workload.run(duration=5.0)
    assert result.events_published > 0
    per_tick = result.extra["avg_deliveries_per_tick"]
    max_leaf = workload.cluster.params.leaf_split_threshold
    assert per_tick <= max_leaf
    assert per_tick < result.extra["analysts"], "must not reach everyone"


def test_each_tick_reaches_entire_owner_leaf():
    workload = build(analysts=16, seed=4)
    manager = workload.cluster.manager_root.replica
    result = workload.run(duration=4.0)
    # delivered = sum over ticks of the owning leaf's size; verify against
    # the leader's accounting of leaf sizes
    sizes = {l.leaf_id: l.size for l in manager.state.leaves.values()}
    assert result.events_delivered > 0
    assert result.events_delivered <= result.events_published * max(sizes.values())
    assert result.events_delivered >= result.events_published * min(sizes.values())


def test_latency_stays_small():
    workload = build(analysts=24, seed=5)
    result = workload.run(duration=5.0)
    assert result.latency.count > 0
    assert result.latency.p99 < 0.5


def test_per_analyst_load_unbalanced_by_symbol_ownership():
    workload = build(analysts=24, seed=6, tick_rate=6.0)
    result = workload.run(duration=5.0)
    loads = workload.deliveries_by_analyst
    # leaves that own popular symbols see traffic; the design's point is
    # that no analyst sees *all* traffic
    assert max(loads.values()) <= result.events_published
    total_seen = sum(loads.values())
    assert total_seen == result.events_delivered


def test_feed_acks_match_sends():
    workload = build(analysts=12, seed=7)
    workload.run(duration=4.0)
    for feed in workload.feeds:
        assert feed.ticks_acked == feed.ticks_sent > 0


def test_ticks_are_acked_with_the_first_leader_contact_crashed():
    """A feed fetches the leaf tree through its router, which tries each
    leader contact in turn: losing the first costs one timeout, not the
    feed."""
    workload = build(analysts=12, seed=7)
    workload.env.crash(workload.cluster.leader_contacts[0])
    workload.run(duration=4.0)
    for feed in workload.feeds:
        assert feed.ticks_acked == feed.ticks_sent > 0
