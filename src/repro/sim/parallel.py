"""Conservative-window parallel simulation across OS processes.

The :class:`~repro.sim.scheduler.Scheduler` runs on one core; this
module is the multi-core engine.  The node population is partitioned by a
scenario plan (:mod:`repro.deploy.scenarios` — ``addresses()`` / ``owners()`` /
``build()``); each partition runs a full private ``Environment`` (its
own scheduler, network shard, protocol state) inside one of W worker
processes, and the engine advances everyone in lockstep windows of the
cross-partition lookahead (Chandy-Misra-Bryant, with the window barrier
playing the null message):

1.  **Window j**: every partition runs ``scheduler.run(until=(j+1)·L)``
    where ``L`` is the latency model's floor (a message takes at least
    that long to arrive, so no partition can affect another sooner).  Any
    envelope whose
    destination lives on another partition was captured by the
    :class:`~repro.runtime.parallel_backend.PartitionFabric` instead of
    entering the local heap.
2.  **Barrier**: captured envelopes are encoded with the PR-8 wire codec
    (``encode_data_frames``), wrapped in :class:`~repro.net.wire.
    parallel.WindowData` frames, and routed through the parent hub.  A
    worker announces the barrier with :class:`WindowDone` *every*
    window, sends included or not, and waits for the hub's
    :class:`WindowGo` — so no worker ever outruns a message bound for
    its past.
3.  **Injection**: inbound envelopes are sorted by ``(deliver_time,
    source partition, capture order)`` — every term a pure function of
    the capture process, not of W — and scheduled at their original
    deadlines.  A send in window j has ``send_time > j·L``, hence
    ``deliver_time > (j+1)·L``: always the next window's future, never
    the past.

**Determinism is the contract, not a best effort.**  The same
partitioning at any W executes the identical windowed protocol — the
W=1 run *is* the serial reference — so per-partition delivery digests
are byte-identical across W and the merged fingerprint is
W-independent.  Three mechanics make that hold: every cross-partition
envelope round-trips the codec even between partitions sharing a worker
(so payload identity never depends on placement), per-partition seeds
derive from ``(scenario seed, partition)`` alone, and every worker —
including W=1 — runs in a spawned child with a pinned
``PYTHONHASHSEED`` (``SimRandom.fork`` hashes label strings).

Wall-clock is injected (``clock=time.perf_counter``), never read here:
the engine itself stays RL001-clean and deterministic.  A second
injected clock (``cpu_clock=time.process_time``) measures each
process's *CPU seconds* over the measured window — process time
excludes barrier waits, so ``serial wall / (max worker CPU + hub CPU)``
is the run's critical-path speedup: what wall-clock shows once the host
has at least W+1 cores, measurable honestly even on a smaller host.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.wire.codec import (
    CodecError,
    FRAME_CONTROL,
    decode_frame,
    encode_control_frame,
    encode_data_frames,
)
from repro.net.wire.parallel import (  # registers kinds 91-95 on import
    WindowData,
    WindowDone,
    WindowGo,
    WorkerFault,
    WorkerReport,
)

# Hard ceiling on waiting for children to exit after the run completes
# (mirrors repro.deploy.launcher).
_JOIN_TIMEOUT = 20.0
# A worker silent for this long mid-window is declared lost: the barrier
# surfaces a clean error instead of hanging (the worker-crash contract).
DEFAULT_BARRIER_TIMEOUT = 120.0
# Worker reports travel over pipes, not datagrams — allow big payloads.
_REPORT_MAX_BYTES = 1 << 24


class ParallelError(RuntimeError):
    """A parallel run failed structurally: a worker died or faulted
    mid-window, a barrier timed out, or the plan is unusable."""


@dataclass(frozen=True)
class PartitionPlan:
    """Who owns what: addresses -> partitions -> contiguous worker blocks.

    Worker ``w`` owns partitions ``[w·P/W, (w+1)·P/W)`` — contiguous
    blocks, so a scenario whose ``owners()`` places interacting nodes on
    adjacent partitions keeps that locality within one process.  The
    partition count is part of the *behaviour* (it decides which
    envelopes cross the codec); W is pure execution placement, which is
    why digests are W-invariant only for a fixed P.
    """

    partitions: int
    workers: int
    owners: Dict[str, int]

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ParallelError("need at least one partition")
        if not 1 <= self.workers <= self.partitions:
            raise ParallelError(
                f"workers must be in [1, partitions]: "
                f"{self.workers} workers over {self.partitions} partitions"
            )
        for address, pid in self.owners.items():
            if not 0 <= pid < self.partitions:
                raise ParallelError(
                    f"{address!r} assigned to partition {pid} "
                    f"outside [0, {self.partitions})"
                )

    def block(self, worker: int) -> range:
        """The contiguous partition range worker ``worker`` owns."""
        p, w = self.partitions, self.workers
        return range(worker * p // w, (worker + 1) * p // w)

    def worker_of(self, partition: int) -> int:
        for worker in range(self.workers):
            if partition in self.block(worker):
                return worker
        raise ParallelError(f"partition {partition} outside the plan")


@dataclass
class ParallelOutcome:
    """What a parallel run produced, determinism evidence included."""

    ok: bool
    partitions: int
    workers: int
    windows: int
    lookahead: float
    fingerprint: str = ""  # merged global fingerprint, W-independent
    digests: Dict[int, str] = field(default_factory=dict)
    per_partition: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    events: int = 0
    deliveries: int = 0
    envelopes_crossed: int = 0
    alloc_stats: Dict[str, int] = field(default_factory=dict)
    measured: Optional[Dict[str, Any]] = None
    errors: List[str] = field(default_factory=list)


def merged_fingerprint(digests: Dict[int, str]) -> str:
    """Fold per-partition digests (in partition order) into one global
    fingerprint: equal partition digests => equal fingerprint, at any W."""
    fold = hashlib.sha256()
    for pid in sorted(digests):
        fold.update(f"{pid}|{digests[pid]}\n".encode("ascii"))
    return fold.hexdigest()


def _window_targets(duration: float, lookahead: float) -> List[float]:
    """Absolute end times of every window: multiples of the lookahead,
    the last clamped to the scenario duration.  Computed identically by
    the hub and every worker (multiplication, never accumulation)."""
    if duration <= 0.0:
        raise ParallelError(f"scenario duration must be positive: {duration}")
    targets = []
    j = 0
    while True:
        target = (j + 1) * lookahead
        if target >= duration:
            targets.append(duration)
            return targets
        targets.append(target)
        j += 1


# -- worker side -------------------------------------------------------------


class _Partition:
    """One partition's world inside a worker: env, digest, counters."""

    def __init__(self, scenario, pid: int, plan: PartitionPlan) -> None:
        from repro.metrics.digest import DeliveryDigest
        from repro.proc.env import Environment
        from repro.runtime.parallel_backend import ParallelRuntime

        self.pid = pid
        self.runtime = ParallelRuntime(
            seed=scenario.seed + pid,
            partition=pid,
            owners=plan.owners,
        )
        self.env = Environment(latency=scenario.latency, runtime=self.runtime)
        self.fabric = self.runtime.fabric
        self.digest = DeliveryDigest(self.env.network)
        local = [a for a, owner in plan.owners.items() if owner == pid]
        self.state = scenario.build(self.env, local)
        self.expired = 0  # final-window captures that can never deliver

    def snapshot(self) -> Dict[str, Any]:
        alloc = dict(getattr(self.env.scheduler, "alloc_stats", None) or {})
        net_alloc = getattr(self.env.network, "alloc_stats", None)
        if net_alloc:
            alloc["fresh_envelopes"] = net_alloc["fresh_envelopes"]
        return {
            "digest": self.digest.hexdigest(),
            "deliveries": self.digest.count,
            "events": self.env.scheduler.events_processed,
            "captured": self.fabric.captured,
            "injected": self.fabric.injected,
            "expired": self.expired,
            "alloc": alloc,
        }


def _worker_main(
    worker: int,
    scenario,
    plan: PartitionPlan,
    lookahead: float,
    conn,
    clock,
    cpu_clock,
    measure_from: Optional[float],
    fault: Optional[Tuple[int, int]],
) -> None:
    """Child entry point: one OS process = one block of partitions."""
    from repro.net.wire.registry import ensure_registered

    ensure_registered()
    window = -1
    try:
        targets = _window_targets(scenario.duration, lookahead)
        owned = list(plan.block(worker))
        parts = [_Partition(scenario, pid, plan) for pid in owned]
        by_pid = {part.pid: part for part in parts}
        worker_by_pid = [
            plan.worker_of(pid) for pid in range(plan.partitions)
        ]
        measuring = False
        measure_t0 = 0.0
        measure_cpu0 = 0.0
        measure_events = 0
        for window, target in enumerate(targets):
            if fault is not None and fault == (worker, window):
                os._exit(3)  # the worker-crash test: die mid-window
            for part in parts:
                part.env.scheduler.run(until=target)
            last = window == len(targets) - 1
            outbound = _drain_outboxes(parts, plan, last, worker_by_pid)
            if last:
                break
            loopback = outbound.pop(worker, [])
            sent = 0
            for dst_worker, frames in sorted(outbound.items()):
                for frame in frames:
                    conn.send_bytes(
                        encode_control_frame(
                            WindowData(window, worker, dst_worker, frame),
                            max_bytes=_REPORT_MAX_BYTES,
                        )
                    )
                    sent += 1
            conn.send_bytes(
                encode_control_frame(WindowDone(window, worker, sent))
            )
            inbound = list(loopback)
            while True:
                kind, value = decode_frame(conn.recv_bytes())
                if kind != FRAME_CONTROL:
                    raise ParallelError(
                        f"worker {worker}: data frame outside a "
                        "WindowData wrapper"
                    )
                if value.__class__ is WindowGo:
                    if value.window != window:
                        raise ParallelError(
                            f"worker {worker}: got go for window "
                            f"{value.window} inside window {window}"
                        )
                    break
                inbound.append(value.frame)
            _inject_inbound(inbound, by_pid, plan)
            if (
                clock is not None
                and not measuring
                and measure_from is not None
                and target >= measure_from - 1e-12
            ):
                measuring = True
                measure_t0 = clock()
                if cpu_clock is not None:
                    measure_cpu0 = cpu_clock()
                measure_events = sum(
                    p.env.scheduler.events_processed for p in parts
                )
        measured = None
        if measuring:
            measured = {
                "wall_s": clock() - measure_t0,
                "events": sum(
                    p.env.scheduler.events_processed for p in parts
                )
                - measure_events,
            }
            if cpu_clock is not None:
                # Process time excludes barrier waits: this worker's
                # share of the run's critical path.
                measured["cpu_s"] = cpu_clock() - measure_cpu0
        payload = _worker_results(worker, scenario, parts, measured)
        conn.send_bytes(
            encode_control_frame(
                WorkerReport(worker, payload), max_bytes=_REPORT_MAX_BYTES
            )
        )
        conn.close()
    except BaseException:
        try:
            conn.send_bytes(
                encode_control_frame(
                    WorkerFault(worker, window, traceback.format_exc()),
                    max_bytes=_REPORT_MAX_BYTES,
                )
            )
            conn.close()
        except Exception:
            pass
        os._exit(1)
    os._exit(0)


def _drain_outboxes(
    parts: List[_Partition],
    plan: PartitionPlan,
    last: bool,
    worker_by_pid: List[int],
) -> Dict[int, List[bytes]]:
    """Collect every partition's captured envelopes (partition order =
    capture order within each source) into encoded frames per
    destination worker.  After the final window nothing can deliver any
    more (every capture's deadline is past the duration), so the
    envelopes are recycled unsent — identically at every W."""
    outbound: Dict[int, List[bytes]] = {}
    for part in parts:
        captured = part.fabric.take_outbox()
        if not captured:
            continue
        if last:
            part.expired += len(captured)
            part.fabric.recycle(captured)
            continue
        owners = plan.owners
        per_worker: Dict[int, List[Any]] = {}
        for envelope in captured:
            dst_worker = worker_by_pid[owners[envelope.dst]]
            per_worker.setdefault(dst_worker, []).append(envelope)
        for dst_worker, envelopes in per_worker.items():
            frames, rejects = encode_data_frames(envelopes)
            if rejects:
                # An unencodable cross-partition payload cannot be
                # silently dropped — that would fork behaviour from a
                # run where the destination was local.
                envelope, reason = rejects[0]
                raise ParallelError(
                    f"cross-partition envelope {envelope.src}->"
                    f"{envelope.dst} not codec-encodable: {reason}"
                )
            outbound.setdefault(dst_worker, []).extend(frames)
        part.fabric.recycle(captured)
    return outbound


def _inject_inbound(
    frames: List[bytes],
    by_pid: Dict[int, "_Partition"],
    plan: PartitionPlan,
) -> None:
    """Decode inbound frames and schedule every envelope at its original
    deadline, in ``(deliver_time, source partition, capture order)``
    order.  Within one source partition the frame stream preserves
    capture order, and filtering to this worker's destinations keeps
    relative order — so the sort key sequence is identical at any W."""
    owners = plan.owners
    arrival: Dict[int, int] = {}  # per-source-partition capture counter
    batches: Dict[int, List[Tuple[float, int, int, Any]]] = {}
    for frame in frames:
        _, envelopes = decode_frame(frame)
        for envelope in envelopes:
            src_pid = owners[envelope.src]
            seq = arrival.get(src_pid, 0)
            arrival[src_pid] = seq + 1
            batches.setdefault(owners[envelope.dst], []).append(
                (envelope.deliver_time, src_pid, seq, envelope)
            )
    for dst_pid in sorted(batches):
        part = by_pid[dst_pid]
        inject = part.fabric.inject
        batch = batches[dst_pid]
        batch.sort(key=lambda entry: entry[:3])
        for deliver_time, _, _, envelope in batch:
            inject(deliver_time, envelope)


def _worker_results(
    worker: int, scenario, parts: List[_Partition], measured
) -> Dict[str, Any]:
    from repro.deploy.scenarios import merge_results

    return {
        "worker": worker,
        "partitions": {
            str(part.pid): part.snapshot() for part in parts
        },
        "results": merge_results(
            scenario.results(part.state) for part in parts
        ),
        "measured": measured,
    }


# -- hub side ----------------------------------------------------------------


def _recv_frame(conn, child, poll_s: float, timeout: float, what: str) -> bytes:
    """One frame off a worker pipe, failing cleanly — never hanging — if
    the worker dies or goes silent (the barrier-crash contract)."""
    waited = 0.0
    while True:
        if conn.poll(poll_s):
            try:
                return conn.recv_bytes()
            except EOFError:
                raise ParallelError(
                    f"{child.name} closed its pipe during {what}"
                ) from None
        if not child.is_alive():
            # One grace poll: the fault frame may still be in flight.
            if conn.poll(0.5):
                continue
            raise ParallelError(
                f"{child.name} died during {what} "
                f"(exit code {child.exitcode})"
            )
        waited += poll_s
        if waited >= timeout:
            raise ParallelError(
                f"{child.name} silent for {timeout:.0f}s during {what}"
            )


def run_parallel(
    scenario,
    partitions: int = 4,
    workers: int = 2,
    lookahead: Optional[float] = None,
    clock: Optional[Callable[[], float]] = None,
    cpu_clock: Optional[Callable[[], float]] = None,
    measure_from: Optional[float] = None,
    barrier_timeout: float = DEFAULT_BARRIER_TIMEOUT,
    hash_seed: str = "0",
    _fault: Optional[Tuple[int, int]] = None,
) -> ParallelOutcome:
    """Run ``scenario`` partitioned ``partitions`` ways across
    ``workers`` processes; return digests, stats and merged results.

    Raises :class:`ParallelError` on structural failure (worker death,
    barrier timeout, unusable plan); scenario-level anomalies land in
    ``outcome.errors``.  ``lookahead`` defaults to the latency model's
    floor; a zero-floor model has no conservative window and must be run
    single-process (or with an explicit ``lookahead``).  ``clock`` (e.g.
    ``time.perf_counter``) plus ``measure_from`` turn on wall-clock
    measurement of the window run from the first barrier at/after
    ``measure_from``; ``cpu_clock``
    (e.g. ``time.process_time``) additionally records per-process CPU
    seconds over that window — both injected, so the engine itself
    never reads a clock.
    """
    plan = PartitionPlan(partitions, workers, scenario.owners(partitions))
    if lookahead is None:
        lookahead = scenario.latency.floor()
    if lookahead <= 0.0:
        raise ParallelError(
            "no conservative lookahead: the latency model's floor is zero "
            "and no lookahead was given"
        )
    targets = _window_targets(scenario.duration, lookahead)

    context = multiprocessing.get_context("spawn")
    pipes = [context.Pipe(duplex=True) for _ in range(workers)]
    # Every worker (W=1 included) runs under a pinned hash seed:
    # SimRandom.fork hashes label strings, so digests only compare
    # between processes hashing strings identically.
    saved = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = hash_seed
    try:
        children = [
            context.Process(
                target=_worker_main,
                args=(
                    worker,
                    scenario,
                    plan,
                    lookahead,
                    pipes[worker][1],
                    clock,
                    cpu_clock,
                    measure_from,
                    _fault,
                ),
                daemon=True,
                name=f"sim-worker-{worker}",
            )
            for worker in range(workers)
        ]
        for child in children:
            child.start()
    finally:
        if saved is None:
            os.environ.pop("PYTHONHASHSEED", None)
        else:
            os.environ["PYTHONHASHSEED"] = saved
    conns = []
    for parent_conn, child_conn in pipes:
        # Drop the parent's copy of the child end so a dead worker's
        # pipe raises EOFError here instead of blocking forever.
        child_conn.close()
        conns.append(parent_conn)

    reports: Dict[int, Any] = {}
    measured_hub: Optional[Dict[str, Any]] = None
    hub_t0 = None
    hub_cpu0 = 0.0
    try:
        for window in range(len(targets) - 1):
            routed: List[List[bytes]] = [[] for _ in range(workers)]
            counts = [0] * workers
            for worker in range(workers):
                while True:
                    raw = _recv_frame(
                        conns[worker],
                        children[worker],
                        0.05,
                        barrier_timeout,
                        f"window {window}",
                    )
                    kind, value = decode_frame(raw)
                    if kind != FRAME_CONTROL:
                        raise ParallelError(
                            f"worker {worker} sent a bare data frame "
                            f"at the window-{window} barrier"
                        )
                    cls = value.__class__
                    if cls is WindowDone:
                        break
                    if cls is WindowData:
                        # Forward the original bytes: the hub routes,
                        # it never re-encodes.
                        routed[value.dst_worker].append(raw)
                        counts[value.dst_worker] += 1
                    elif cls is WorkerFault:
                        raise ParallelError(
                            f"worker {value.worker} faulted in window "
                            f"{value.window}:\n{value.error}"
                        )
                    else:
                        raise ParallelError(
                            f"unexpected {cls.__name__} at the "
                            f"window-{window} barrier"
                        )
            for worker in range(workers):
                conn = conns[worker]
                for raw in routed[worker]:
                    conn.send_bytes(raw)
                conn.send_bytes(
                    encode_control_frame(WindowGo(window, counts[worker]))
                )
            if (
                clock is not None
                and hub_t0 is None
                and measure_from is not None
                and targets[window] >= measure_from - 1e-12
            ):
                hub_t0 = clock()
                if cpu_clock is not None:
                    hub_cpu0 = cpu_clock()
        for worker in range(workers):
            raw = _recv_frame(
                conns[worker],
                children[worker],
                0.05,
                barrier_timeout,
                "final report",
            )
            kind, value = decode_frame(raw)
            if kind != FRAME_CONTROL or value.__class__ is WorkerFault:
                detail = (
                    f":\n{value.error}"
                    if value.__class__ is WorkerFault
                    else ""
                )
                raise ParallelError(f"worker {worker} faulted{detail}")
            reports[worker] = value.payload
        if hub_t0 is not None:
            measured_hub = {"wall_s": clock() - hub_t0}
            if cpu_clock is not None:
                measured_hub["cpu_s"] = cpu_clock() - hub_cpu0
    except CodecError as exc:
        raise ParallelError(f"undecodable barrier frame: {exc}") from None
    finally:
        # Closing the hub ends first: a worker still blocked at a
        # barrier gets EOF and exits instead of waiting out the join.
        for conn in conns:
            conn.close()
        for child in children:
            child.join(timeout=_JOIN_TIMEOUT / max(1, workers))
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=2.0)

    return _merge_outcome(
        plan, len(targets), lookahead, reports, measured_hub
    )


def _merge_outcome(
    plan: PartitionPlan,
    windows: int,
    lookahead: float,
    reports: Dict[int, Any],
    measured_hub: Optional[Dict[str, Any]],
) -> ParallelOutcome:
    from repro.deploy.scenarios import merge_results

    outcome = ParallelOutcome(
        ok=True,
        partitions=plan.partitions,
        workers=plan.workers,
        windows=windows,
        lookahead=lookahead,
    )
    slices = []
    per_worker_measured = {}
    for worker in sorted(reports):
        payload = reports[worker]
        if not isinstance(payload, dict):
            outcome.errors.append(
                f"worker {worker} reported malformed payload {payload!r}"
            )
            continue
        for pid_str, snap in payload.get("partitions", {}).items():
            pid = int(pid_str)
            outcome.digests[pid] = snap["digest"]
            outcome.per_partition[pid] = snap
            outcome.events += snap["events"]
            outcome.deliveries += snap["deliveries"]
            outcome.envelopes_crossed += snap["captured"]
            for key, count in snap.get("alloc", {}).items():
                outcome.alloc_stats[key] = (
                    outcome.alloc_stats.get(key, 0) + int(count)
                )
        slices.append(payload.get("results", {}))
        if payload.get("measured") is not None:
            per_worker_measured[worker] = payload["measured"]
    missing = [
        pid for pid in range(plan.partitions) if pid not in outcome.digests
    ]
    if missing:
        outcome.errors.append(f"no report for partitions {missing}")
    outcome.results = merge_results(slices)
    outcome.fingerprint = merged_fingerprint(outcome.digests)
    if per_worker_measured or measured_hub:
        outcome.measured = {
            "workers": per_worker_measured,
            "hub": measured_hub,
        }
    outcome.ok = not outcome.errors
    return outcome


def run_serial(
    scenario,
    clock: Optional[Callable[[], float]] = None,
    cpu_clock: Optional[Callable[[], float]] = None,
    measure_from: Optional[float] = None,
) -> Dict[str, Any]:
    """The single-process comparator: one Environment owning every
    address, no windows, no codec — the baseline the speedup target is
    measured against.  Reports the same measurement shape as a worker so
    the bench can divide like for like."""
    from repro.metrics.digest import DeliveryDigest
    from repro.proc.env import Environment
    from repro.runtime.sim_backend import SimRuntime

    runtime = SimRuntime(seed=scenario.seed)
    env = Environment(latency=scenario.latency, runtime=runtime)
    digest = DeliveryDigest(env.network)
    state = scenario.build(env, scenario.addresses())
    measured = None
    if clock is not None and measure_from is not None:
        env.scheduler.run(until=min(measure_from, scenario.duration))
        t0 = clock()
        cpu0 = cpu_clock() if cpu_clock is not None else 0.0
        events0 = env.scheduler.events_processed
        env.scheduler.run(until=scenario.duration)
        measured = {
            "wall_s": clock() - t0,
            "events": env.scheduler.events_processed - events0,
        }
        if cpu_clock is not None:
            measured["cpu_s"] = cpu_clock() - cpu0
    else:
        env.scheduler.run(until=scenario.duration)
    return {
        "digest": digest.hexdigest(),
        "deliveries": digest.count,
        "events": env.scheduler.events_processed,
        "results": scenario.results(state),
        "measured": measured,
        "alloc": dict(getattr(env.scheduler, "alloc_stats", None) or {}),
    }
