"""Behaviour guard and wall-clock reports for the discrete-event core.

``--guard`` is the repo's one frozen-behaviour check: it re-runs five
quick scenarios and compares each behaviour fingerprint (message / byte
/ drop / event counters and a delivery-order digest) *exactly* against
``BENCH_core.json``, naming every counter that moved.  Tier-1 runs it
(``tests/test_perf_smoke.py``).  Speed is not gated here — this host
cannot resolve 10% on a sub-second run (EXPERIMENTS.md, "One guard") —
it is measured by ``benchmarks/e2e`` over ten alternating pairs.

Guard scenarios:

``scheduler_micro``
    Pure scheduler churn: self-rescheduling chains, batch scheduling and
    mass cancellation, no network.

``flat_steady_n64``
    A flat group of 64 members under heartbeat failure detection.

``hier_steady_n64``
    The same steady state under the paper's hierarchy: members heartbeat
    only within their leaf group, leaders within the leader group.

``churn``
    A flat heartbeat-monitored group with a rolling crash/recover cycle:
    exercises suspicion, flush, rejoin, and the scheduler's lazily
    cancelled timer events (the heap-compaction path).

``scale_n256``
    The load-driven recursive hierarchy (``--scale``) at its quick size.

Usage::

    PYTHONPATH=src python -m tools.perf_report                # print readings
    PYTHONPATH=src python -m tools.perf_report --guard        # behaviour gate
    PYTHONPATH=src python -m tools.perf_report --guard --update  # new reference
    PYTHONPATH=src python -m tools.perf_report --scale        # scaling curve
    PYTHONPATH=src python -m tools.perf_report --wire         # wire census
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.failure.detector import HeartbeatDetector
from repro.metrics.digest import DeliveryDigest
from repro.net import FixedLatency
from repro.proc import Environment
from repro.sim import Scheduler

HEARTBEAT_INTERVAL = 0.2
SUSPECT_AFTER = 1.0
GOSSIP_INTERVAL = 0.5


def _heartbeat_factory(node):
    return HeartbeatDetector(
        node, interval=HEARTBEAT_INTERVAL, suspect_after=SUSPECT_AFTER
    )


def capture_experiment_tables(out_path: str) -> int:
    """Regenerate the experiment-table capture (``--tables``).

    Runs the benchmark suite once with the timing loop disabled (the
    tables report protocol costs — message counts, latencies, bounds —
    not wall-clock, so one pass suffices), then extracts every
    ``== title ==`` table from the output.  This is how
    ``docs/bench_tables.txt`` is produced; the raw pytest capture at the
    repo root is a scratch artifact and is gitignored.
    """
    import subprocess

    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks",
            "-q",
            "-s",
            "--benchmark-disable",
            # The n=1024 claim tables take minutes each; they are
            # recorded in EXPERIMENTS.md via `make bench-claims`.
            "-m",
            "not scale_claims",
            "-p",
            "no:randomly",
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout + proc.stderr)
        print("perf_report: benchmark run failed; tables not written")
        return 1
    tables: List[str] = []
    block: List[str] = []
    for line in proc.stdout.splitlines():
        if line.startswith("== ") and line.rstrip().endswith("=="):
            block = [line.rstrip()]
        elif block:
            if line.strip() in ("", "."):
                tables.append("\n".join(block))
                block = []
            else:
                block.append(line.rstrip())
    if block:
        tables.append("\n".join(block))
    header = (
        "Experiment tables from the benchmark suite.\n"
        "Regenerate with `make bench-tables`; see EXPERIMENTS.md for the\n"
        "narrative around each table.\n"
    )
    with open(out_path, "w") as fh:
        fh.write(header + "\n" + "\n\n".join(tables) + "\n")
    print(f"perf_report: wrote {len(tables)} table(s) to {out_path}")
    return 0


def _read_report(path: str) -> Dict:
    """A recorded report, or ``{}`` when absent or unreadable."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _write_report(report: Dict, out_path: str) -> None:
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")


class _HeapWatch:
    """Samples the scheduler's live event count, raw heap length and
    lazily cancelled entries every ``interval`` sim seconds (cheap probe
    events; identical overhead for every label).

    ``pending`` (live, non-cancelled events) is the honest backlog
    metric: the raw heap length also counts lazily cancelled entries and
    counts a whole tick bucket as one, so cancellation-heavy runs inflate
    it and periodic timers deflate it.  ``peak_cancelled`` is the count
    compaction bounds: it stays flat only while cancelled timers are
    compacted away."""

    def __init__(self, scheduler: Scheduler, interval: float = 0.05) -> None:
        self._scheduler = scheduler
        self._interval = interval
        self.peak = 0
        self.peak_raw = 0
        self.peak_cancelled = 0
        scheduler.after(interval, self._probe)

    def _probe(self) -> None:
        self.peak = max(self.peak, self._scheduler.pending)
        self.peak_raw = max(self.peak_raw, self._scheduler.heap_size)
        self.peak_cancelled = max(
            self.peak_cancelled, self._scheduler.cancelled_in_heap
        )
        self._scheduler.after(self._interval, self._probe)


def _fingerprint(env: Environment, digest: Optional[DeliveryDigest]) -> Dict:
    stats = env.network.stats
    fp = {
        "messages": stats.messages,
        "wire_packets": stats.wire_packets,
        "bytes": stats.bytes,
        "dropped": stats.dropped,
        "events_processed": env.scheduler.events_processed,
        "final_now": round(env.now, 9),
    }
    if digest is not None:
        fp["delivery_digest"] = digest.hexdigest()
        fp["deliveries"] = digest.count
    return fp


def _fresh_allocs(env: Environment) -> Optional[int]:
    """Total fresh (non-pooled) constructions so far: scheduler events +
    arg lists + network envelopes.  None when the engine has no free-list
    telemetry (the asyncio runtime)."""
    sched_stats = getattr(env.scheduler, "alloc_stats", None)
    if sched_stats is None:
        return None
    total = sched_stats["fresh_events"] + sched_stats["fresh_arg_lists"]
    net_stats = getattr(env.network, "alloc_stats", None)
    if net_stats is not None:
        total += net_stats["fresh_envelopes"]
    return total


def _timed_run(env: Environment, duration: float) -> Dict:
    """Run ``duration`` sim seconds under the wall clock and report.

    ``allocs`` is the window's delta of fresh event/arg-list/envelope
    constructions — the zero-allocation discipline's probe.  In a warm
    steady state the free lists satisfy every request, so this should be
    ~0 regardless of how many events fire (``allocs_per_1k_events``
    normalises it for comparison across scenario sizes)."""
    watch = _HeapWatch(env.scheduler)
    before_events = env.scheduler.events_processed
    before_allocs = _fresh_allocs(env)
    t0 = time.perf_counter()
    env.run_for(duration)
    wall = time.perf_counter() - t0
    events = env.scheduler.events_processed - before_events
    result = {
        "wall_s": round(wall, 4),
        "sim_s": duration,
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "peak_heap": watch.peak,
        "peak_raw_heap": watch.peak_raw,
        "peak_cancelled": watch.peak_cancelled,
    }
    if before_allocs is not None:
        allocs = _fresh_allocs(env) - before_allocs
        result["allocs"] = allocs
        result["allocs_per_1k_events"] = (
            round(1000.0 * allocs / events, 3) if events else 0.0
        )
    return result


# -- scenarios ---------------------------------------------------------------


def scenario_scheduler_micro() -> Dict:
    """Scheduler-only churn: chains, batches, and mass cancellation."""
    n_chain = 20_000
    n_batch = 20_000
    n_cancel = 10_000

    sched = Scheduler()
    remaining = [n_chain]

    def chain() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sched.after(0.001, chain)

    # Eight interleaved self-rescheduling chains (timer-like load).
    for i in range(8):
        sched.after(0.001 * (i + 1), chain)
    # A batch of one-shot events (message-like load).
    for i in range(n_batch):
        sched.at(0.5 + i * 1e-6, lambda: None)
    # Schedule-then-cancel churn (retransmission-timer-like load).
    handles = [sched.at(1.0 + i * 1e-6, lambda: None) for i in range(n_cancel)]
    for i, handle in enumerate(handles):
        if i % 2 == 0:
            handle.cancel()

    t0 = time.perf_counter()
    sched.run()
    wall = time.perf_counter() - t0
    events = sched.events_processed
    return {
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "peak_heap": None,
        "fingerprint": {"events_processed": events, "final_now": round(sched.now, 9)},
    }


def _build_flat(
    n: int, seed: int, gossip: Optional[float] = GOSSIP_INTERVAL
) -> Environment:
    from repro.membership import build_group

    env = Environment(seed=seed, latency=FixedLatency(0.002))
    build_group(
        env,
        "svc",
        n,
        detector_factory=_heartbeat_factory,
        gossip_interval=gossip,
    )
    return env


def scenario_flat_steady(n: int, sim_s: float, seed: int = 11) -> Dict:
    # Stability gossip off: a flat group's all-to-all gossip is dominated
    # by O(n)-wide ordering metadata (protocol-layer cost), which would
    # drown the event-core cost this scenario isolates.  Heartbeats stay
    # on: ring monitoring, one one-way push per member per tick.
    env = _build_flat(n, seed, gossip=None)
    env.run_for(1.5)  # settle (untimed)
    digest = DeliveryDigest(env.network)
    result = _timed_run(env, sim_s)
    result["fingerprint"] = _fingerprint(env, digest)
    return result


def _build_hier(n: int, seed: int, join_stagger: float) -> Environment:
    from repro.core import (
        LargeGroupParams,
        build_large_group,
        build_leader_group,
    )

    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=3, fanout=8)
    leaders = build_leader_group(
        env,
        "svc",
        params,
        detector_factory=_heartbeat_factory,
        gossip_interval=GOSSIP_INTERVAL,
    )
    contacts = tuple(r.node.address for r in leaders)
    build_large_group(
        env,
        "svc",
        n,
        params,
        contacts,
        join_stagger=join_stagger,
        detector_factory=_heartbeat_factory,
        gossip_interval=GOSSIP_INTERVAL,
    )
    return env


def scenario_hier_steady(
    n: int, sim_s: float, seed: int = 13, settle: float = 6.0
) -> Dict:
    env = _build_hier(n, seed, join_stagger=0.02)
    env.run_for(settle + 0.02 * n)  # joins staggered, tree settles (untimed)
    digest = DeliveryDigest(env.network)
    result = _timed_run(env, sim_s)
    result["fingerprint"] = _fingerprint(env, digest)
    return result


def scenario_churn(sim_s: float, n: int = 24, seed: int = 17) -> Dict:
    """Rolling crash/recover over a heartbeat-monitored flat group."""
    env = _build_flat(n, seed)
    env.run_for(1.5)  # settle (untimed)
    period = 0.5
    cycles = int(sim_s / period) - 2
    for i in range(max(cycles, 0)):
        victim = f"svc-{1 + (i % (n - 1))}"
        t = env.now + period * (i + 1)
        env.scheduler.at(t, lambda v=victim: env.crash(v))
        env.scheduler.at(
            t + period * 1.5, lambda v=victim: env.process(v).recover()
        )
    digest = DeliveryDigest(env.network)
    result = _timed_run(env, sim_s)
    result["fingerprint"] = _fingerprint(env, digest)
    return result


def _census_reference(
    scenario,
) -> Tuple[Dict, Dict[str, List[int]], List[str]]:
    """The sim reference run of ``scenario`` (as ``run_reference``) with
    a send tap that encodes every envelope alone, as a one-record data
    frame: ``(results, {category: [envelopes, bytes]}, rejects)``.  A
    sim run is a function of its seed, so the census repeats to the
    byte."""
    from repro.net.wire import encode_data_frames
    from repro.net.wire.registry import ensure_registered
    from repro.runtime.sim_backend import SimRuntime

    ensure_registered()
    census: Dict[str, List[int]] = {}
    rejects: List[str] = []

    def tap(_event, envelope) -> None:
        frames, rejected = encode_data_frames((envelope,))
        if rejected:
            rejects.append(f"{envelope.category}: {rejected[0][1]}")
            return
        entry = census.setdefault(envelope.category, [0, 0])
        entry[0] += 1
        entry[1] += len(frames[0])

    env = Environment(
        latency=scenario.latency, runtime=SimRuntime(seed=scenario.seed)
    )
    env.network.add_tap(tap, events=("send",))
    state = scenario.build(env, scenario.addresses())
    env.run_for(scenario.duration)
    return scenario.results(state), census, rejects


def run_wire_suite(quick: bool = False) -> Dict:
    """The ``--wire`` report: wire cost of the hierarchical parity
    scenario (16 workers, or 6 under ``--quick``).

    ``census`` is the sim reference run with every envelope encoded by
    the real codec: bytes per category and per delivery checked, which
    repeat to the byte.  ``udp_probe`` runs the same plan as a four-node
    loopback cluster — every cross-node message a codec-encoded datagram
    — and checks it against the reference; its frame and byte counts
    follow host timing (retransmissions, how many records a flush
    packs), so they are a parity probe, not a figure that repeats
    (docs/deployment.md)."""
    from repro.deploy.cluster import LoopbackCluster
    from repro.deploy.scenarios import HierScenario

    workers = 6 if quick else 16
    scenario = HierScenario(workers=workers)
    print("  running sim reference with the wire census ...", flush=True)
    reference, census, rejects = _census_reference(scenario)
    print(f"  running hier workers={workers} on a 4-node loopback cluster ...",
          flush=True)
    start = time.perf_counter()
    live, wire = LoopbackCluster(scenario, nodes=4, time_scale=0.1).run()
    wall_s = time.perf_counter() - start
    errors = scenario.check(reference, live)
    checked = reference.get("counters", {}).get("deliveries_checked", 0)
    census_bytes = sum(b for _, b in census.values())
    deliveries = live.get("counters", {}).get("deliveries_checked", 0)
    report: Dict = {
        "benchmark": "bench_wire_deployment",
        "scenario": {
            "name": scenario.name,
            "workers": workers,
            "nodes": 4,
            "logical_duration_s": scenario.duration,
        },
        "census": {
            "repeatable": True,
            "deliveries_checked": checked,
            "envelopes": sum(n for n, _ in census.values()),
            "bytes": census_bytes,
            "bytes_per_delivery": round(census_bytes / checked, 1)
            if checked else None,
            "by_category": {
                category: {
                    "envelopes": n,
                    "bytes": b,
                    "bytes_per_delivery": round(b / checked, 1)
                    if checked else None,
                }
                for category, (n, b) in sorted(census.items())
            },
        },
        "udp_probe": {
            "repeatable": False,
            "wire": wire,
            "wall_s": round(wall_s, 3),
            "deliveries_checked": deliveries,
            "bytes_per_delivery": round(
                wire["wire_bytes_sent"] / deliveries, 1
            ) if deliveries else None,
        },
        "parity_errors": errors,
    }
    print(
        f"    census: {census_bytes} bytes, {checked} deliveries checked; "
        f"udp probe: {wire['frames_sent']} frames / "
        f"{wire['wire_bytes_sent']} bytes, {deliveries} deliveries checked"
    )
    if rejects:
        raise SystemExit(f"perf_report: the codec rejected {rejects[:3]}")
    if errors:
        raise SystemExit(
            f"perf_report: deployment diverged from the sim reference: {errors}"
        )
    if not wire.get("frames_received"):
        raise SystemExit("perf_report: no frames crossed the loopback")
    if wire.get("decode_errors"):
        raise SystemExit(
            f"perf_report: {wire['decode_errors']} wire decode errors"
        )
    return report


# -- scale report (BENCH_scale.json) -----------------------------------------

# (n, timed sim seconds) for the full scaling sweep; the guard runs
# only the quick size.
SCALE_SIZES = ((1024, 3.0), (2048, 2.0), (4096, 1.0))
SCALE_GUARD = (256, 1.5)


def _scale_policy():
    """The load-driven reorg policy every scale scenario runs under:
    thresholds low enough that the in-window heat traffic (20 msgs/sec
    per heated leaf) drives hot splits mid-measurement."""
    from repro.core import ReorgPolicy

    return ReorgPolicy(
        mode="load",
        report_interval=0.5,
        cooldown=4.0,
        ewma_alpha=0.5,
        hot_delivery_rate=10.0,
        cold_delivery_rate=0.5,
    )


def scenario_scale(
    n: int, sim_s: float, seed: int = 19, sanitize: bool = False
) -> Dict:
    """The recursive hierarchy at scale under load-driven reorganisation.

    Staggered joins grow a multi-level tree (fanout 8: n=1024 packs
    ~64-128 leaves, depth >= 3), then the two highest-sorted leaves are
    heated for the whole timed window so hot splits — and their routing
    disruption — land inside the measurement.  Heartbeat detectors stay
    off: at n=4096 the per-leaf ping matrices would multiply the event
    count without touching the reorg machinery this scenario measures
    (``hier_steady_n64`` keeps them on)."""
    from repro.core import (
        LargeGroupParams,
        build_large_group,
        build_leader_group,
    )

    params = LargeGroupParams(resiliency=3, fanout=8, reorg=_scale_policy())
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    leaders = build_leader_group(env, "svc", params)
    contacts = tuple(r.node.address for r in leaders)
    stagger = 0.01
    members = build_large_group(
        env, "svc", n, params, contacts, join_stagger=stagger
    )
    env.run_for(6.0 + stagger * n)  # joins staggered, tree settles (untimed)
    manager = next(r for r in leaders if r.is_manager)
    placed = [m for m in members if m.is_member]

    sanitizer = None
    if sanitize:
        from repro.metrics.sanitizer import VirtualSynchronySanitizer

        sanitizer = VirtualSynchronySanitizer(strict=True)
        for member in placed:
            # Re-attach across splits/merges (the listener fires now and
            # again on every later leaf change).
            member.add_leaf_change_listener(sanitizer.attach)

    # Heat the two highest-sorted leaves, 20/sec against the 10/sec hot
    # threshold.  Leaf-id counters are not zero-padded, so these are the
    # ids whose counter sorts last as text (at n=1024 the join-born
    # svc-ldr-0/8 and /9: "9" sorts after "64"), not the newest.
    hot = sorted(manager.state.leaves)[-2:]
    senders = [next(m for m in placed if m.leaf_id == leaf) for leaf in hot]
    start = env.now
    for sender in senders:
        for i in range(int(sim_s / 0.05) - 1):
            env.scheduler.at(
                start + (i + 1) * 0.05,
                # The sender may transiently be mid-move during its own
                # leaf's split; skip the tick rather than raise.
                lambda s=sender, i=i: s.is_member
                and s.leaf_multicast(("tick", i)),
            )

    digest = DeliveryDigest(env.network)
    mark = len(manager.reorg_log)
    result = _timed_run(env, sim_s)
    window = manager.reorg_log[mark:]
    splits = [e for e in window if e["event"] == "split-directed"]
    merges = [e for e in window if e["event"] == "merge-directed"]
    disruptions = [
        e["window"] for e in window if e["event"] == "routing-converged"
    ]
    result["placed"] = len(placed)
    result["tree"] = {
        "depth": manager.state.depth(),
        "leaves": len(manager.state.leaves),
    }
    result["reorgs"] = {
        "splits": len(splits),
        "hot_splits": sum(1 for e in splits if e.get("reason") == "hot"),
        "merges": len(merges),
        "cold_merges": sum(1 for e in merges if e.get("reason") == "cold"),
        "epoch": manager.reorg_epoch,
    }
    result["routing_disruption_s"] = {
        "windows": len(disruptions),
        "mean": round(sum(disruptions) / len(disruptions), 6)
        if disruptions
        else None,
        "max": round(max(disruptions), 6) if disruptions else None,
    }
    result["fingerprint"] = _fingerprint(env, digest)
    if sanitizer is not None:
        result["sanitizer"] = {
            "clean": not sanitizer.violations,
            "deliveries_checked": sanitizer.deliveries_checked,
        }
    return result


def run_scale_suite(quick: bool = False) -> Dict:
    """The ``--scale`` report: the load-driven recursive hierarchy's
    scaling curve (docs/hierarchy.md).  Per size: events/sec, tree shape,
    reorg counts and routing-disruption windows."""
    sizes = (SCALE_GUARD,) if quick else SCALE_SIZES
    report: Dict = {
        "benchmark": "bench_scale_hierarchy",
        "params": "resiliency=3 fanout=8 " + _scale_policy().describe(),
        "scenarios": {},
    }
    for n, sim_s in sizes:
        name = f"scale_n{n}"
        print(f"  running {name} ...", flush=True)
        r = report["scenarios"][name] = scenario_scale(n, sim_s)
        print(
            f"    {r['events']} events in {r['wall_s']}s "
            f"({r['events_per_sec']:,} events/sec), depth "
            f"{r['tree']['depth']}, {r['reorgs']['splits']} splits / "
            f"{r['reorgs']['merges']} merges in window"
        )
    if not quick:
        # The acceptance run: n=1024 with the strict virtual-synchrony
        # sanitizer attached end to end.  The sanitizer is observation-
        # only, so this run's behaviour fingerprint must equal the
        # unsanitized scale_n1024's (its events/sec is not comparable —
        # every delivery pays the checking wrapper).
        name = "scale_n1024_sanitized"
        print(f"  running {name} ...", flush=True)
        r = report["scenarios"][name] = scenario_scale(
            1024, SCALE_SIZES[0][1], sanitize=True
        )
        clean = r["sanitizer"]["clean"]
        identical = (
            r["fingerprint"] == report["scenarios"]["scale_n1024"]["fingerprint"]
        )
        print(
            f"    sanitizer clean: {clean} "
            f"({r['sanitizer']['deliveries_checked']} deliveries checked), "
            f"fingerprint identical to scale_n1024: {identical}"
        )
        if not clean:
            raise SystemExit(
                "perf_report: sanitizer violations at n=1024 under "
                "load-driven reorg"
            )
        if not identical:
            raise SystemExit(
                "perf_report: sanitized n=1024 fingerprint diverged — the "
                "sanitizer is not observation-only"
            )
    return report


def build_scenarios() -> Dict[str, Callable[[], Dict]]:
    """The timed quick scenarios: what a bare run prints and what
    ``tests/test_perf_smoke.py`` keeps from rotting."""
    return {
        "scheduler_micro": scenario_scheduler_micro,
        "flat_steady_n64": lambda: scenario_flat_steady(64, 1.0),
        "hier_steady_n64": lambda: scenario_hier_steady(64, 1.5, settle=4.0),
        "churn": lambda: scenario_churn(3.0),
    }


# -- behaviour guard ---------------------------------------------------------


def build_guards() -> Dict[str, Callable[[], Dict]]:
    """Guard name -> callable returning that scenario's behaviour
    fingerprint: everything ``BENCH_core.json`` holds."""
    timed = build_scenarios()
    timed[f"scale_n{SCALE_GUARD[0]}"] = lambda: scenario_scale(*SCALE_GUARD)
    return {
        name: (lambda fn=fn: fn()["fingerprint"]) for name, fn in timed.items()
    }


def compare_fingerprints(
    recorded: Dict[str, Dict], current: Dict[str, Dict]
) -> List[str]:
    """One failure line per counter that differs: scenario, key, and
    both values.  Empty when every fingerprint is identical."""
    failures: List[str] = []
    for name in sorted(set(recorded) | set(current)):
        expected, fresh = recorded.get(name), current.get(name)
        if expected is None or fresh is None:
            side = "reference" if expected is None else "guard scenario"
            failures.append(f"{name}: no such {side}")
            continue
        for key in sorted(set(expected) | set(fresh)):
            if expected.get(key) != fresh.get(key):
                failures.append(
                    f"{name}: {key} {fresh.get(key)!r} != recorded "
                    f"{expected.get(key)!r}"
                )
    return failures


def run_guard(out_path: str, update: bool) -> int:
    """``--guard``: fail if the working tree changed simulated behaviour.

    Runs every guard scenario and compares its fingerprint (delivery
    digest included) byte for byte against the reference in
    ``out_path``.  ``--guard --update`` (``make bench-report``) records
    the current tree as the new reference, and writes nothing else.
    Exit codes: 0 identical, 2 no reference, 3 a fingerprint moved.
    """
    mode = "update" if update else "check"
    print(f"perf_report: guard ({mode}) vs {out_path}")
    recorded = _read_report(out_path).get("guard")
    if not update and not recorded:
        print(
            f"perf_report: no guard reference in {out_path}; "
            "run `python -m tools.perf_report --guard --update` first"
        )
        return 2
    current: Dict[str, Dict] = {}
    for name, fn in build_guards().items():
        print(f"  running {name} ...", flush=True)
        current[name] = fn()
    if update:
        _write_report({"benchmark": "perf_report_guard", "guard": current}, out_path)
        return 0
    failures = compare_fingerprints(recorded, current)
    if failures:
        for line in failures:
            print(f"perf_report: GUARD FAIL {line}")
        return 3
    print(f"perf_report: guard ok ({len(current)} fingerprints identical)")
    return 0


# -- report assembly ---------------------------------------------------------


def run_suite(only: Optional[List[str]] = None) -> Dict[str, Dict]:
    scenarios = build_scenarios()
    if only:
        unknown = set(only) - set(scenarios)
        if unknown:
            raise SystemExit(f"unknown scenario(s): {sorted(unknown)}")
        scenarios = {k: v for k, v in scenarios.items() if k in only}
    results: Dict[str, Dict] = {}
    for name, fn in scenarios.items():
        print(f"  running {name} ...", flush=True)
        results[name] = fn()
        r = results[name]
        eps = r.get("events_per_sec")
        print(
            f"    {r['events']} events in {r['wall_s']}s"
            + (f" ({eps:,} events/sec)" if eps else "")
        )
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes for --scale / --wire",
    )
    parser.add_argument(
        "--out",
        help="the report file --guard reads or --guard --update / --scale "
        "/ --wire write; defaults to that mode's own "
        "BENCH_*.json",
    )
    parser.add_argument(
        "--tables",
        metavar="PATH",
        help="instead of benchmarking, regenerate the experiment-table "
        "capture (docs/bench_tables.txt) and exit",
    )
    parser.add_argument(
        "--wire",
        action="store_true",
        help="encode every envelope of the hierarchical parity scenario's "
        "sim run, probe the same plan on a 4-node loopback UDP cluster, "
        "and write the byte census to BENCH_wire.json (docs/deployment.md)",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the load-driven recursive hierarchy at n=1024/2048/4096 "
        "(n=256 under --quick) and write events/sec, reorg counts and "
        "routing-disruption windows to BENCH_scale.json (docs/hierarchy.md)",
    )
    parser.add_argument(
        "--guard",
        action="store_true",
        help="behaviour gate: rerun the guard scenarios and fail on any "
        "fingerprint that differs from the reference in BENCH_core.json",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="with --guard: record the current tree as the new guard "
        "reference instead of checking against it",
    )
    args = parser.parse_args(argv)

    if args.tables:
        return capture_experiment_tables(args.tables)

    if args.guard:
        return run_guard(args.out or "BENCH_core.json", update=args.update)

    for flag, default_out, suite in (
        ("scale", "BENCH_scale.json", run_scale_suite),
        ("wire", "BENCH_wire.json", run_wire_suite),
    ):
        if getattr(args, flag):
            print(f"perf_report: {flag} report quick={args.quick}")
            _write_report(suite(args.quick), args.out or default_out)
            return 0

    print("perf_report: guard scenario readings (printed, recorded nowhere)")
    run_suite()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
