"""One pass of one workload in this process: set-up, the measurement
window, the drain, the correctness checks, and the raw numbers.

A *timed* pass keeps everything detached while it times (the wire census
tap is on only during every sixth window slice, whose host time is not
counted); a *traced* pass runs the same seed and schedule with every
observer attached.  Both must end with identical message, event and
completion counts.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core import GetHierarchyInfo
from repro.metrics import LatencySample, VirtualSynchronySanitizer, VirtualSynchronyViolation

import layers
from catalog import HEARTBEAT_INTERVAL, KEYS, LAYERS_ON_WIRE, LAYERS_PROFILED, SLICES, Workload
from cluster import SERVICE, Cluster
from loadgen import PUT, Request, Schedule, key_name, make_schedule, preload_value

HARNESS_DIR = Path(__file__).resolve().parent
REPRO_DIR = HARNESS_DIR.parents[1] / "src" / "repro"
TIMER_PHASE = 0.05  # slice boundaries sit this far past a tick: no timer fires on one


def is_census_slice(k: int) -> bool:
    """Every sixth slice carries the wire census in a timed pass.  Six is
    coprime to the five slices of a background cycle, so the census visits
    every phase in turn and the timed slices stay evenly spread over them."""
    return k % 6 == 5


OK, FAILED, WRONG = "ok", "failed", "wrong"


class CheckFailed(RuntimeError):
    """An output of the program was wrong; the run reports no metrics."""


class Window:
    """Drives the schedule through the cluster and records what comes back."""

    def __init__(
        self, cluster: Cluster, schedule: Schedule, traced: bool,
        observers: Optional[layers.Observers], cc_counter: layers.CCCounter,
        watch_worker: Callable[[Any, Any], None],
    ) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.traced = traced
        self.observers = observers
        self.cc_counter = cc_counter
        self.watch_worker = watch_worker
        self.env = cluster.env
        self.scheduler = cluster.env.scheduler
        self.census = layers.WireCensus(keep_frames=traced)
        # remove_tap matches by identity, and each attribute read makes a new bound method
        self._census_tap = self.census.tap
        self.sampler = (
            layers.StackSampler(str(REPRO_DIR), str(HARNESS_DIR), self.scheduler)
            if traced else None
        )
        count = len(schedule.requests)
        self.latency: List[Optional[float]] = [None] * count  # logical s; None = no correct reply
        self.replies = 0
        self.correct = 0
        self.wrong = 0  # replies carrying a value the service could not legitimately hold
        self.late_max = 0.0
        # values a get may legitimately return: the preload plus every put issued so far
        self.allowed: Dict[str, set] = {
            key_name(k): {preload_value(k)} for k in range(KEYS)
        }
        # per slice boundary: (raw s, rescaled s) of the slice that ended, correct replies, events
        self.marks: List[tuple] = []
        self.pace = layers.HostPace()
        self.peak_pending = 0
        self.hierarchy: Dict[str, Any] = {}
        # leaf id -> crash times still waiting for a reply from that leaf
        self._outage_open: Dict[str, List[float]] = {}
        self.outages: List[float] = []
        self.faults = 0
        self._fault_rng = random.Random(schedule.fault_seed)
        self._fault_order: List[str] = []

    # -- run ---------------------------------------------------------------------------

    def run(self) -> None:
        env, schedule = self.env, self.schedule
        # Open just past a whole logical second, so that slice boundaries fall
        # between the heartbeat and gossip bursts, never inside one.
        env.run(until=math.floor(env.now) + 1.0 + TIMER_PHASE)
        self.t0 = env.now
        # Each slice holds the same whole number of heartbeat intervals.
        step = HEARTBEAT_INTERVAL * int(schedule.length / (SLICES * HEARTBEAT_INTERVAL))
        if step == 0.0:  # smoke-test sizes
            step = schedule.length / SLICES
        for k in range(SLICES + 1):
            self.scheduler.at(self.t0 + step * k, self._mark)
        for due in schedule.fault_times:
            self.scheduler.at(self.t0 + due, self._inject_fault)
        self._next = 0
        self.scheduler.at(self.t0 + schedule.requests[0].due, self._fire)
        env.run(until=self.t0 + schedule.length + self.cluster.workload.drain)

    def _fire(self) -> None:
        request = self.schedule.requests[self._next]
        self._next += 1
        late = self.env.now - (self.t0 + request.due)
        if late > self.late_max:
            self.late_max = late
        self._issue(request)
        if self._next < len(self.schedule.requests):
            self.scheduler.at(self.t0 + self.schedule.requests[self._next].due, self._fire)
        else:
            self._close()

    def _issue(self, request: Request) -> None:
        value = ("put", request.index)
        if request.op == PUT:
            self.allowed[request.key].add(value)
        owner = None
        if self._outage_open:
            owner = self.cluster.clients[request.index % len(self.cluster.clients)].owner_leaf(request.key)
        due_at = self.t0 + request.due

        def on_result(reply: Any) -> None:
            verdict = self._judge(request, value, reply)
            if verdict is FAILED:
                return
            self.replies += 1
            if verdict is WRONG:
                self.wrong += 1
                return
            self.correct += 1
            now = self.env.now
            self.latency[request.index] = now - due_at
            waiting = self._outage_open.get(owner) if owner is not None else None
            if waiting:
                for crash_time in [t for t in waiting if t <= due_at]:
                    self.outages.append(now - crash_time)
                    waiting.remove(crash_time)

        self.cluster.issue(request, value, on_result)

    def _judge(self, request: Request, value: Any, reply: Any) -> str:
        """A client that gave up hands back None (False for a put): failed.
        Any other reply is either what the service may hold, or wrong."""
        if self.cluster.workload.service == "echo":
            expected = reply == ("ok", value)
        elif request.op == PUT:
            return OK if reply is True else FAILED
        else:
            expected = reply in self.allowed[request.key]
        if reply is None:
            return FAILED
        return OK if expected else WRONG

    # -- slice boundaries ----------------------------------------------------------------

    def _mark(self) -> None:
        k = len(self.marks)
        slice_s = self.pace.lap()
        if k == 0:
            self._open()
        self.marks.append((slice_s, self.correct, self.scheduler.events_processed))
        pending = self.scheduler.pending
        if pending > self.peak_pending:
            self.peak_pending = pending
        if not self.traced:
            network = self.env.network
            if k < SLICES and is_census_slice(k):
                network.add_tap(self._census_tap, events=("send",))
            else:
                network.remove_tap(self._census_tap)

    def _open(self) -> None:
        env = self.env
        self.stats_open = env.stats_snapshot()
        self.events_open = self.scheduler.events_processed
        self.alloc_open = dict(self.scheduler.alloc_stats)
        self.cc_open = self.cc_counter.totals()
        self.reorgs_open = sum(len(r.reorg_log) for r in self.cluster.leaders)
        if self.traced:
            self.observers.open = True
            env.network.add_tap(self._census_tap, events=("send",))
            self.sampler.start()
        self.cpu_open = time.process_time()

    def _close(self) -> None:
        env = self.env
        self.cpu_s = time.process_time() - self.cpu_open
        if self.traced:
            self.sampler.stop()
            self.observers.open = False
        env.network.remove_tap(self._census_tap)
        self.stats = env.stats_since(self.stats_open)
        self.events = self.scheduler.events_processed - self.events_open
        alloc = self.scheduler.alloc_stats
        self.fresh_allocs = sum(
            alloc[k] - self.alloc_open[k] for k in ("fresh_events", "fresh_arg_lists")
        )
        executed, takeovers = self.cc_counter.totals()
        self.cc_executed = executed - self.cc_open[0]
        self.cc_takeovers = takeovers - self.cc_open[1]
        self.reorgs = sum(len(r.reorg_log) for r in self.cluster.leaders) - self.reorgs_open
        node = self.cluster.client_nodes[0]
        node.runtime.rpc.call(
            self.cluster.contacts[0],
            GetHierarchyInfo(service=SERVICE),
            on_reply=lambda value, sender: self.hierarchy.update(value or {}),
        )

    # -- faults -----------------------------------------------------------------------------

    def _inject_fault(self) -> None:
        cluster = self.cluster
        leaves = cluster.leaves()
        self.faults += 1
        leaf_id = self._next_fault_leaf(leaves)
        victim = leaves[leaf_id][0].leaf_member.acting_coordinator()
        survivors = [m.me for m in leaves[leaf_id] if m.me != victim]
        self.env.crash(victim)
        self._outage_open.setdefault(leaf_id, []).append(self.env.now)
        if self.observers is not None:
            self.observers.note_crash(victim, survivors)
        self.scheduler.after(cluster.workload.rejoin_after, self._rejoin)

    def _next_fault_leaf(self, leaves: Dict[str, Any]) -> str:
        """Leaves take turns in a seeded order, so that every run hits hot
        and cold leaves alike (independent picks made lat_p99_ms depend on
        how often the leaf of the hottest key happened to be drawn)."""
        while True:
            if not self._fault_order:
                self._fault_order = sorted(leaves)
                self._fault_rng.shuffle(self._fault_order)
            leaf_id = self._fault_order.pop()
            if leaf_id in leaves:
                return leaf_id

    def _rejoin(self) -> None:
        member = self.cluster.start_replacement()
        self.watch_worker(member, self.cluster.stores[-1])


def _store_divergence(cluster: Cluster) -> List[str]:
    """Keys on which the live members of some leaf disagree."""
    store_of = {id(s.member): s for s in cluster.stores}
    bad: List[str] = []
    for leaf_id, members in sorted(cluster.leaves().items()):
        stores = [store_of[id(m)] for m in members]
        for k in range(KEYS):
            key = key_name(k)
            if len({s.local_value(key) for s in stores}) > 1:
                bad.append(f"{leaf_id}/{key}")
    return bad


def run_pass(
    workload: Workload, seed: int, scale: float, traced: bool, n: Optional[int] = None
) -> Dict[str, Any]:
    n = n or workload.n
    schedule = make_schedule(workload, seed, scale)

    setup_pace = layers.HostPace()
    cluster = Cluster(workload, n)
    observers = layers.Observers(cluster.env) if traced else None
    sanitizer = (
        VirtualSynchronySanitizer(strict=True) if traced and workload.sanitize else None
    )
    cc_counter = layers.CCCounter()

    def watch_worker(member: Any, server: Any) -> None:
        cc_counter.watch(server, member)
        if observers is not None:
            observers.watch_node(member.node)
            observers.watch_member(member)
        if sanitizer is not None:
            member.add_leaf_change_listener(sanitizer.attach)

    for member, server in zip(cluster.members, cluster.stores or cluster.echo_servers):
        watch_worker(member, server)
    if observers is not None:
        for node in [r.node for r in cluster.leaders] + cluster.client_nodes:
            observers.watch_node(node)
    cluster.wait_placed(tick=setup_pace.lap_if_due)
    if workload.service == "store":
        cluster.preload(tick=setup_pace.lap_if_due)
    setup_pace.lap()
    placed = sum(m.is_member for m in cluster.members)
    if placed != n:
        raise CheckFailed(f"{placed}/{n} workers placed when the window opened")

    window = Window(cluster, schedule, traced, observers, cc_counter, watch_worker)
    window.run()

    # -- correctness, fatal ------------------------------------------------------------------
    attempted = len(schedule.requests)
    failed = attempted - window.correct
    problems: List[str] = []
    unmapped = layers.unmapped_categories(window.stats.by_category)
    if unmapped:
        problems.append(f"message categories with no layer: {unmapped}")
    if window.census.rejects:
        problems.append(f"codec rejected {len(window.census.rejects)} envelopes: {window.census.rejects[:3]}")
    if cluster.stores:
        diverged = _store_divergence(cluster)
        if diverged:
            problems.append(f"{len(diverged)} keys differ inside a leaf at quiescence: {diverged[:5]}")
    violations = 0
    if sanitizer is not None:
        try:
            sanitizer.check(at_quiescence=True)
        except VirtualSynchronyViolation as exc:
            problems.append(f"sanitizer: {exc}")
        violations = len(sanitizer.violations)
    if not window.hierarchy:
        problems.append("no GetHierarchyInfo reply during the drain")
    if problems:
        raise CheckFailed("; ".join(problems))

    # -- numbers -------------------------------------------------------------------------------
    completed = max(1, window.correct)
    stats = window.stats
    slice_s, done, events = zip(*window.marks)
    untapped = [k for k in range(SLICES) if not is_census_slice(k)]  # nothing attached in a timed pass
    untapped_raw = sum(slice_s[k + 1][0] for k in untapped)
    untapped_scaled = sum(slice_s[k + 1][1] for k in untapped)
    untapped_done = sum(done[k + 1] - done[k] for k in untapped)
    # a request with no correct reply waited until the run ended: the worst latency there is
    run_end = cluster.env.now - window.t0
    latencies = sorted(
        run_end - request.due if latency is None else latency
        for request, latency in zip(schedule.requests, window.latency)
    )
    latency, outages = LatencySample(latencies), LatencySample(window.outages)
    real_bytes = window.census.bytes_by_category(stats.by_category, stats.bytes_by_category)
    wire_total = sum(real_bytes.values())

    out: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "scale": scale, "n": n, "traced": traced,
        "attempted": attempted, "failed": failed, "wrong": window.wrong,
        "guard": {
            "messages": cluster.env.network.stats.messages,
            "events_processed": cluster.env.scheduler.events_processed,
            "window_messages": stats.messages,
            "window_events": window.events,
            "completions": window.replies,
            "latency_sha1": hashlib.sha1(repr(latencies).encode()).hexdigest(),
        },
        "untapped_scaled_s": untapped_scaled,
        "by_category": dict(sorted(stats.by_category.items())),
        "faults": window.faults,
    }
    metrics: Dict[str, float] = {
        "setup_s": setup_pace.scaled_s,
        "req_per_s": untapped_done / untapped_scaled,
        "lat_p50_ms": 1e3 * latency.p50,
        "lat_p99_ms": 1e3 * latency.p99,
        "msgs_per_req": stats.messages / completed,
        "wire_bytes_per_req": wire_total / completed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / attempted,
        "outage_p50_s": outages.p50,
        "outage_max_s": outages.max,
        "lat_samples": float(window.correct),
        "sim.events_per_req": window.events / completed,
        "sim.events_per_s": sum(events[k + 1] - events[k] for k in untapped) / untapped_raw,
        "sim.peak_pending": float(window.peak_pending),
        "sim.fresh_allocs_per_kevent": 1e3 * window.fresh_allocs / max(1, window.events),
        "net.wire_packets_per_req": stats.wire_packets / completed,
        "net.dropped": float(stats.dropped),
        "net.wire.bytes_per_env": wire_total / max(1, stats.messages),
        "net.wire.model_bytes_ratio": wire_total / max(1, stats.bytes),
        "core.leader.reorgs": float(window.reorgs),
        "core.hierarchy.leaves": float(len(window.hierarchy.get("leaves", ()))),
        "core.hierarchy.depth": float(window.hierarchy.get("depth", 0)),
        "toolkit.cc_executions_per_req": window.cc_executed / completed,
        "toolkit.cc_takeovers": float(window.cc_takeovers),
        "metrics.sanitizer.violations": float(violations),
        "harness.gen_late_max_ms": 1e3 * window.late_max,
        "harness.cpu_us_per_req": 1e6 * window.cpu_s / completed,
        "harness.raw_setup_s": setup_pace.raw_s,
        "harness.raw_req_per_s": untapped_done / untapped_raw,
        "harness.host_pace_x": window.pace.pace_x,
    }
    routers = [c.router for c in cluster.clients] if workload.service == "echo" else []
    hits = sum(r.placement_hits for r in routers)
    lookups = sum(r.placement_lookups for r in routers)
    metrics["core.router.placement_hit_ratio"] = hits / (hits + lookups) if routers else 0.0
    layer_msgs = layers.by_layer(stats.by_category)
    layer_bytes = layers.by_layer(real_bytes)
    for layer in LAYERS_ON_WIRE:
        metrics[f"{layer}.msgs_per_req"] = layer_msgs[layer] / completed
        metrics[f"{layer}.wire_bytes_per_req"] = layer_bytes[layer] / completed
    if traced:
        sampler, census = window.sampler, window.census
        metrics["sim.peak_pending"] = float(max(window.peak_pending, sampler.peak_pending))
        metrics["harness.profile_samples"] = float(sampler.samples)
        for layer in LAYERS_PROFILED:
            share = sampler.by_layer[layer] / max(1, sampler.samples)
            metrics[f"{layer}.self_us_per_req"] = 1e6 * share * window.cpu_s / completed
        metrics["net.wire.encode_us_per_env"] = census.encode_ns / 1e3 / max(1, census.envelopes_sampled)
        metrics["net.wire.decode_us_per_env"] = census.decode_us_per_env()
        metrics["failure.suspicions"] = float(observers.suspicions)
        metrics["failure.false_suspicions"] = float(observers.false_suspicions)
        metrics["membership.view_installs"] = float(observers.view_installs)
        metrics["membership.view_change_p50_s"] = LatencySample(observers.view_change_s).p50
        metrics["broadcast.deliveries_per_req"] = observers.deliveries / completed
        metrics["sim.sched_ns_per_event"] = layers.scheduler_probe()
    out["metrics"] = metrics
    return out
