"""Determinism digest: the guard that perf work changes nothing observable.

The event-core optimisations (scheduler fast paths, timer re-arming,
envelope reuse, counter rewrites) must be *behaviour-preserving*: for a
fixed seed the simulation must produce the same messages, between the
same endpoints, in the same order, at the same simulated times.  This
module pins that down four ways:

1. same-seed reruns of a mid-size hierarchical scenario (with churn)
   produce identical stats snapshots, event counts and delivery digests;
2. the digest of a flat churn scenario that consumes *no* randomness
   (fixed latency, no loss — the flat stack draws nothing from the RNG)
   matches a frozen constant;
3. a run is a function of its seed alone: fresh interpreters under
   different ``PYTHONHASHSEED`` values produce the same flat digest and
   the same guard fingerprints (``tools/perf_report.py --guard``, whose
   reference lives in ``BENCH_core.json``);
4. different seeds diverge (the digest actually discriminates).
"""

from repro.core import (
    LargeGroupParams,
    build_large_group,
    build_leader_group,
)
from repro.failure.detector import RENEW_TICKS, HeartbeatDetector, Subscribe
from repro.membership import build_group
from repro.metrics.digest import DeliveryDigest
from repro.net import FixedLatency, LanLatency
from repro.proc import Environment


def _hb(node):
    return HeartbeatDetector(node, interval=0.2, suspect_after=1.0)


def run_hier_churn_scenario(
    seed: int, latency=None, drop: float = 0.0, instrument=None
):
    """A mid-size hierarchical service with heartbeats, gossip, a crash
    and a recovery — exercising every path the perf rewrite touched.

    ``instrument``, if given, is called with the environment before the
    run starts — how tests bolt observation-only instrumentation (e.g.
    ``repro.trace.attach``) onto the frozen scenario to prove it changes
    nothing.
    """
    env = Environment(
        seed=seed,
        latency=latency if latency is not None else FixedLatency(0.002),
        drop_probability=drop,
    )
    params = LargeGroupParams(resiliency=3, fanout=6)
    leaders = build_leader_group(
        env, "svc", params, detector_factory=_hb, gossip_interval=0.5
    )
    contacts = tuple(r.node.address for r in leaders)
    build_large_group(
        env,
        "svc",
        40,
        params,
        contacts,
        join_stagger=0.05,
        detector_factory=_hb,
        gossip_interval=0.5,
    )
    digest = DeliveryDigest(env.network)
    if instrument is not None:
        instrument(env)
    env.run_for(4.0)
    env.crash("svc-w-3")
    env.run_for(2.0)
    env.process("svc-w-3").recover()
    env.run_for(4.0)
    return (
        digest.hexdigest(),
        digest.count,
        env.network.stats.snapshot(),
        env.scheduler.events_processed,
        env.now,
    )


def run_flat_churn_scenario(seed: int = 23, instrument=None):
    """A flat heartbeat-monitored group with a crash and a recovery.

    Fixed latency, no loss, no duplicates: the run consumes zero RNG
    draws, so its counters and its delivery order are machine-independent
    constants — frozen below.
    """
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    _nodes, _members = build_group(
        env, "svc", 32, detector_factory=_hb, gossip_interval=0.5
    )
    digest = DeliveryDigest(env.network)
    if instrument is not None:
        instrument(env)
    env.run_for(3.0)
    env.crash("svc-5")
    env.run_for(2.0)
    env.process("svc-5").recover()
    env.run_for(3.0)
    return (
        digest.hexdigest(),
        digest.count,
        env.network.stats.snapshot(),
        env.scheduler.events_processed,
        env.now,
    )


# Re-recorded when the initiator began to send a flush to its targets in
# view rank order, not in set iteration order (which followed the
# process's hash seed): only the digest moved.  Before that, re-recorded
# when a member came to watch one predecessor, not three
# (docs/comms.md, "Ring monitoring"): ``heartbeat`` 3,969 -> 1,324 —
# 3,768 -> 1,257 Heartbeats and 201 -> 66 Subscribes, a third of the
# watches, plus the one Probe svc-6 sends as its watch walks past svc-5
# onto svc-4 — and ``group-suspect`` 3 -> 1, since svc-5 has one watcher
# to report it.  Deliveries 4,068 -> 1,437, messages 4,093 -> 1,446,
# bytes 340,144 -> 128,320, events 5,902 -> 3,254; the rest of the view
# change (30 flush, 30 flush-ok, 31 new-view, 30 ``transport-ack``) is
# untouched.  Before that they were re-recorded for one-way heartbeats
# (``heartbeat`` 7,323 pings and acks -> 3,969 pushes and subscriptions,
# nothing else moved), for cumulative delayed acks (7431 / 7447 / 608464
# / 9256) and for ring monitoring and quiescent gossip (7494 / 7510 /
# 612528 / 9289); the first baseline was 103067 / 104773 / 9151824 /
# 110588.  The constants still guard event-core
# work: if an "optimisation" changes these, it changed simulation
# behaviour — that is a bug, not a baseline refresh.
FROZEN_DIGEST = "896b88ea2e60905fe77ee86235b4584d7d344bac4e6b0f994476eb9d3e1a5d32"
FROZEN_DELIVERIES = 1437
FROZEN_MESSAGES = 1446
FROZEN_BYTES = 128320
FROZEN_EVENTS = 3254


def test_same_seed_identical_digest_and_stats():
    a = run_hier_churn_scenario(23)
    b = run_hier_churn_scenario(23)
    assert a[0] == b[0]  # delivery digest (order-sensitive)
    assert a[1] == b[1]  # delivery count
    assert a[2] == b[2]  # full StatsSnapshot (messages, bytes, categories)
    assert a[3] == b[3]  # events processed
    assert a[4] == b[4]  # final simulated time


def test_same_seed_identical_under_lossy_lan():
    a = run_hier_churn_scenario(29, latency=LanLatency(), drop=0.03)
    b = run_hier_churn_scenario(29, latency=LanLatency(), drop=0.03)
    assert a == b


def test_counts_match_pre_optimisation_baseline():
    """Aggregate counters, compared directly."""
    _digest, deliveries, snapshot, events, now = run_flat_churn_scenario(23)
    assert deliveries == FROZEN_DELIVERIES
    assert snapshot.messages == FROZEN_MESSAGES
    assert snapshot.bytes == FROZEN_BYTES
    assert events == FROZEN_EVENTS
    assert now == 8.0


def test_digest_matches_pre_optimisation_baseline():
    """Delivery *order* digest."""
    assert run_flat_churn_scenario(23)[0] == FROZEN_DIGEST


def python_under_hash_seed(hash_seed: int, code: str) -> str:
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED`` =
    ``hash_seed`` with ``src`` and the repo root importable; its stripped
    stdout."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = (
        os.path.join(repo_root, "src") + os.pathsep + repo_root
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=repo_root,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_one_seed_gives_one_run_under_any_hash_seed():
    """The flat scenario, the guard's ``churn`` and ``scale_n256``, and
    the lossy hierarchical scenario read the same digests and counts
    whatever the process's hash seed: nothing a run does may follow
    ``hash()`` of a string or the iteration order of a set of strings.
    The first three draw nothing from the RNG and catch an order that
    follows the hash seed; the last draws latency and loss from forked
    streams and catches a fork seed that does."""
    code = (
        "import json;"
        "from repro.net import LanLatency;"
        "from tests.test_perf_determinism import ("
        " run_flat_churn_scenario, run_hier_churn_scenario);"
        "from tools.perf_report import build_guards;"
        "digest, deliveries, snapshot, events, _ = run_flat_churn_scenario(23);"
        "lossy = run_hier_churn_scenario(29, latency=LanLatency(), drop=0.03);"
        "guards = build_guards();"
        "print(json.dumps([digest, deliveries, snapshot.messages, events,"
        " lossy[0], lossy[1], lossy[3]]"
        " + [guards[name]() for name in ('churn', 'scale_n256')]))"
    )
    runs = [python_under_hash_seed(seed, code) for seed in (0, 1, 2)]
    assert runs[0] == runs[1] == runs[2]


def test_different_seeds_diverge():
    # With fixed latency and no loss these scenarios draw nothing from the
    # RNG, so different seeds coincide by construction; under a sampled
    # latency model the seed must matter.
    a = run_hier_churn_scenario(23, latency=LanLatency())
    b = run_hier_churn_scenario(31, latency=LanLatency())
    assert a[0] != b[0]


# -- recycling lifecycle edge cases ------------------------------------------
#
# The free-list discipline (docs/simulator.md) has two sharp edges: an
# event cancelled *while its timestamp is already being drained*, and a
# handle held after its event returned to the pool.  Both must stay
# safe, not just fast.


def test_cancel_during_callback_same_timestamp():
    """A callback cancels a later event at the SAME timestamp: the victim
    must not fire, and its (recyclable) event must reach the free list."""
    from repro.sim import Scheduler

    sched = Scheduler()
    fired = []
    handles = {}

    def killer(_arg):
        fired.append("killer")
        handles["victim"].cancel()

    sched.at_call(1.0, killer, None)
    handles["victim"] = sched.at_call_once(1.0, fired.append, "victim")
    sched.run()
    assert fired == ["killer"]
    assert sched.pending == 0
    assert sched.alloc_stats["pooled_events"] >= 1


def test_envelope_reuse_in_steady_state():
    """Delivered envelopes return to the free list: after warm-up a
    steady-state window constructs zero fresh envelopes.

    The steady-state peak is the tick on which every watch renews its
    subscription beside the regular pushes (``RENEW_TICKS`` after the
    watches were made, here t = 5.0 and every 5.0 s after), so the
    warm-up runs past the first renewal and the window holds the second.
    """
    interval = 0.2
    env = Environment(seed=7, latency=FixedLatency(0.002))
    build_group(env, "svc", 8, detector_factory=_hb, gossip_interval=0.5)
    env.run(until=RENEW_TICKS * interval + 1.0)  # pools grow to the peak
    stats = env.network.alloc_stats
    fresh_before = stats["fresh_envelopes"]
    assert stats["pooled_envelopes"] > 0
    subscribes = []
    env.network.add_tap(
        lambda _event, envelope: subscribes.append(envelope.payload),
        events=("send",),
    )
    env.run(until=2 * RENEW_TICKS * interval + 1.0)
    assert any(isinstance(payload, Subscribe) for payload in subscribes)
    assert env.network.alloc_stats["fresh_envelopes"] == fresh_before
