"""Workloads and metrics of the end-to-end benchmark: the one place that
names them.  ``BENCHMARK.json`` at the repo root restates this catalog for
the driver; ``test_smoke.py`` fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# At scale 1.0 the request counts below give a ~24 s measurement window on
# the 2-core reference host; ``--seconds S`` runs at scale S / 24.  The
# driver's total-time cap (92 runs in 3,420 s) fits RUN_SECONDS, i.e. the
# recorded scale 0.5: n, rates and fault spacing are never scaled.
REFERENCE_WINDOW_S = 24.0
RUN_SECONDS = 10

HEARTBEAT_INTERVAL = 0.2  # logical s; every node's failure detector
GOSSIP_INTERVAL = 0.5  # logical s; stability gossip.  Together: a 1 s background cycle
# The simulated network's latency jitter has its own fixed seed: `--seed`
# drives arrivals, keys and fault order only, so every seed loads the same
# cluster.  (Seeding the network too made set-up a lottery: at n=1024 seed
# 13 left stragglers retrying until 35 logical s instead of 11, a 90 s run.)
NETWORK_SEED = 1
KEYS = 4096
ZIPF_S = 0.99
CLIENTS = 8
SLICES = 20  # window slices; see onepass.is_census_slice for which ones are timed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    service: str  # "store" (PartitionedStore*) or "echo" (attach_hierarchical_service + ServiceRouter)
    requests: int  # at scale 1.0
    rate: float  # requests per logical second (open loop, fixed)
    put_share: float
    join_stagger: float
    drain: float  # logical seconds after the last arrival
    fault_interval: float = 0.0  # crash one leaf coordinator this often; 0 = no faults
    rejoin_after: float = 0.5  # a replacement member joins this long after each crash
    quiet_tail: float = 4.0  # no faults in the last logical seconds of the window
    sanitize: bool = False  # strict VirtualSynchronySanitizer on the traced pass


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="kv_read",
        why="n=256 store, Zipf gets at 2,500/s: the request path (toolkit -> proc -> net -> sim) "
        "does the work and ordered broadcast does none",
        n=256, service="store", requests=60_000, rate=2500.0, put_share=0.0,
        join_stagger=0.05, drain=3.0,
    ),
    Workload(
        name="kv_write",
        why="same cluster and keys, puts at 1,000/s: ABCAST sequencing, transport acks and stability "
        "gossip dominate, so a read-path gain that costs the write path shows here",
        n=256, service="store", requests=20_000, rate=1000.0, put_share=1.0,
        join_stagger=0.05, drain=3.0, sanitize=True,
    ),
    Workload(
        name="churn",
        why="n=128, 80/20 get/put at 500/s while a leaf coordinator crashes every logical second: "
        "failure detection, flush, takeover and rejoin set the tail and the outage",
        n=128, service="store", requests=30_000, rate=500.0, put_share=0.2,
        join_stagger=0.05, drain=8.0, fault_interval=1.0, sanitize=True,
    ),
    Workload(
        name="steady_n1024",
        why="n=1024 echo service at 400/s through ServiceRouter.resolve_key: background chatter, "
        "timers and O(n) metadata set the cost; set-up is a 1,024-member join storm",
        n=1024, service="echo", requests=4_000, rate=400.0, put_share=0.0,
        join_stagger=0.005, drain=3.0,
    ),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    bound: float = 0.0  # end-to-end only: share of the parent's median it may worsen by


# Gated by the driver (never 0 on any workload).  Each bound is at least
# three times the widest spread over ten seeds recorded in README.md; the
# host-time metrics sit at the contract's cap because this sandbox is noisy
# even after rescaling to the reference pace (layers.HostPace).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "host seconds, rescaled to the reference host pace, from the start of cluster construction to "
           "all n placed (and 4,096 keys preloaded)",
           0.25),
    Metric("req_per_s", "req/s", "higher",
           "requests completed / host seconds rescaled to the reference host pace, over the 17 window "
           "slices that run with nothing attached",
           0.25),
    Metric("lat_p50_ms", "ms", "lower",
           "median of reply time minus due time on the engine clock (logical, exact under a seed)",
           0.03),
    Metric("lat_p99_ms", "ms", "lower",
           "99th percentile of the same; a request with no correct reply counts as waiting until the run ended",
           0.15),
    Metric("msgs_per_req", "msgs/req", "lower",
           "NetworkStats.messages over the window / completed requests, background chatter included",
           0.09),
    Metric("wire_bytes_per_req", "bytes/req", "lower",
           "real-codec bytes: per-category mean of encode_data_frames output (1-in-8 sample on the census "
           "slices) x exact per-category window count / completed requests",
           0.15),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss of the timed pass at exit", 0.10),
)

LAYERS_PROFILED = (
    "sim", "net", "proc", "transport", "clocks", "failure", "membership",
    "broadcast", "core", "toolkit", "metrics", "python", "harness",
)
LAYERS_ON_WIRE = ("failure", "transport", "broadcast", "membership", "toolkit", "core")


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = [
        # End-to-end by nature, but 0 on some workloads, which the driver's
        # end-to-end list may not hold; `--compare` still gates them.
        Metric("failed_share", "ratio", "lower",
               "(attempted - correct replies) / attempted; timeouts, give-ups and wrong values all count"),
        Metric("outage_p50_s", "s", "lower",
               "per crash: logical time to the first reply to a request owned by that leaf and due after it; median"),
        Metric("outage_max_s", "s", "lower", "the same, maximum over the injected crashes"),
        Metric("lat_samples", "count", "higher", "requests behind lat_p50_ms / lat_p99_ms"),
    ]
    for layer in LAYERS_PROFILED:
        out.append(Metric(f"{layer}.self_us_per_req", "us/req", "lower",
                          f"ITIMER_PROF samples whose innermost repro frame is in {layer} x window CPU / requests"))
    for layer in LAYERS_ON_WIRE:
        out.append(Metric(f"{layer}.msgs_per_req", "msgs/req", "lower",
                          f"window messages whose category maps to {layer} / completed requests"))
        out.append(Metric(f"{layer}.wire_bytes_per_req", "bytes/req", "lower",
                          f"real-codec bytes of those messages / completed requests"))
    out += [
        Metric("sim.events_per_req", "count", "lower", "scheduler.events_processed over the window / requests"),
        Metric("sim.events_per_s", "events/s", "higher", "window events / window host seconds, timed pass"),
        Metric("sim.peak_pending", "count", "lower", "largest scheduler.pending seen at a profile tick or slice marker"),
        Metric("sim.fresh_allocs_per_kevent", "1/kevent", "lower",
               "fresh events + arg lists (scheduler.alloc_stats) per 1,000 window events"),
        Metric("sim.sched_ns_per_event", "ns/event", "lower",
               "direct probe: 200k chained after_call_once events on a bare Scheduler"),
        Metric("net.wire_packets_per_req", "count", "lower", "NetworkStats.wire_packets over the window / requests"),
        Metric("net.dropped", "count", "lower", "NetworkStats.dropped over the window"),
        Metric("net.wire.encode_us_per_env", "us", "lower", "timed encode_data_frames on the sampled envelopes"),
        Metric("net.wire.decode_us_per_env", "us", "lower", "timed decode_frame on the frames of that sample"),
        Metric("net.wire.bytes_per_env", "bytes", "lower", "real-codec bytes per window envelope"),
        Metric("net.wire.model_bytes_ratio", "ratio", "lower", "real-codec bytes / NetworkStats.bytes (the size model)"),
        Metric("failure.suspicions", "count", "lower", "detector listener calls in the window"),
        Metric("failure.false_suspicions", "count", "lower", "of those, target alive at that instant"),
        Metric("membership.view_installs", "count", "lower", "leaf view events in the window, all members"),
        Metric("membership.view_change_p50_s", "s", "lower",
               "per crash: logical time until every survivor of that leaf installed a view without it; median"),
        Metric("broadcast.deliveries_per_req", "count", "lower", "leaf multicast deliveries in the window / requests"),
        Metric("core.router.placement_hit_ratio", "ratio", "higher",
               "ServiceRouter placement_hits / (hits + lookups); 0 where no router is used"),
        Metric("core.leader.reorgs", "count", "lower", "manager reorg_log entries added in the window"),
        Metric("core.hierarchy.leaves", "count", "higher", "leaves in the GetHierarchyInfo reply at quiescence"),
        Metric("core.hierarchy.depth", "count", "lower", "depth in the same reply"),
        Metric("toolkit.cc_executions_per_req", "ratio", "lower",
               "coordinator-cohort requests_executed over the window / requests; above 1 is repeated work"),
        Metric("toolkit.cc_takeovers", "count", "lower", "coordinator-cohort takeovers over the window"),
        Metric("metrics.sanitizer.violations", "count", "lower",
               "strict VirtualSynchronySanitizer on kv_write and churn; 0 where not attached"),
        Metric("runtime.asyncio.lat_p50_ms", "ms", "lower",
               "kv_read only: same store at n=32 on AsyncioRuntime(time_scale=1); 0 elsewhere"),
        Metric("runtime.asyncio.lat_p99_ms", "ms", "lower", "the same probe, 99th percentile"),
        Metric("runtime.asyncio.cpu_us_per_req", "us/req", "lower", "the same probe, process_time / requests"),
        Metric("harness.profile_samples", "count", "higher", "ITIMER_PROF samples taken in the window"),
        Metric("harness.trace_overhead_x", "x", "lower", "traced window host seconds / timed window host seconds"),
        Metric("harness.gen_late_max_ms", "ms", "lower",
               "latest the generator issued a request after it was due (0 on sim; real on the asyncio probe)"),
        Metric("harness.cpu_us_per_req", "us/req", "lower", "window process_time / requests, timed pass"),
        Metric("harness.raw_setup_s", "s", "lower", "setup_s before rescaling to the reference host pace, timed pass"),
        Metric("harness.raw_req_per_s", "req/s", "higher", "req_per_s before rescaling, timed pass"),
        Metric("harness.host_pace_x", "x", "lower",
               "median calibrate() reading in the window / reference pace, timed pass: 1.3 = a host 30% slow"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

# Gated by `--compare` although the driver lists them per layer.
COMPARE_BOUNDS: Dict[str, float] = {
    **{m.name: m.bound for m in END_TO_END},
    "outage_p50_s": 0.10,
    "outage_max_s": 0.25,
    "failed_share": 0.0,  # any rise regresses
}


def scale_for_seconds(seconds: float) -> float:
    return seconds / REFERENCE_WINDOW_S


def benchmark_json() -> dict:
    """The contract file, derived from this catalog."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
