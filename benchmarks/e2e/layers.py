"""Per-layer attribution, all from outside the program: a send tap that
measures real-codec bytes, a SIGPROF stack sampler that charges CPU to
the innermost ``repro`` package on the stack, listeners for suspicions,
views and deliveries, and direct timed probes of the scheduler and codec.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.net.wire import decode_frame, encode_data_frames
from repro.net.wire.registry import ensure_registered
from repro.sim.scheduler import Scheduler

from catalog import LAYERS_ON_WIRE, LAYERS_PROFILED

# Envelope category -> layer (package under src/repro/).  A category that
# is not listed fails the run, so new wire traffic cannot go unattributed.
CATEGORY_LAYER: Dict[str, str] = {
    "heartbeat": "failure",
    "transport-ack": "transport",
    "group-data": "broadcast",
    "group-setorder": "broadcast",
    "group-stability": "broadcast",
    "group-flush": "membership",
    "group-flush-ok": "membership",
    "group-new-view": "membership",
    "group-suspect": "membership",
    "cc-request": "toolkit",
    "cc-reply": "toolkit",
    "cc-result": "toolkit",
    "rpc-request": "core",
    "rpc-reply": "core",
    "hierarchy-op": "core",
    "name-replicate": "core",
    "treecast-relay": "core",
    "treecast-leaf": "core",
    "treecast-ack": "core",
    "treecast-commit": "core",
}

SAMPLE_EVERY = 8
KEEP_FRAMES = 4000  # frames kept for the decode probe


class WireCensus:
    """Send tap: encodes every 8th envelope of each category with the real
    codec.  The sample is a function of the send sequence alone, so it
    repeats exactly under a seed."""

    def __init__(self, keep_frames: bool) -> None:
        ensure_registered()
        self.seen: Dict[str, int] = {}
        self.sampled: Dict[str, List[int]] = {}  # category -> [envelopes, bytes]
        self.encode_ns = 0
        self.rejects: List[str] = []
        self.frames: List[bytes] = []
        self._keep = keep_frames

    def tap(self, event: str, envelope: Any) -> None:
        category = envelope.category
        seen = self.seen.get(category, 0)
        self.seen[category] = seen + 1
        if seen % SAMPLE_EVERY:
            return
        begin = time.perf_counter_ns()
        frames, rejects = encode_data_frames((envelope,))
        self.encode_ns += time.perf_counter_ns() - begin
        if rejects:
            self.rejects.append(f"{category}: {rejects[0][1]}")
            return
        entry = self.sampled.setdefault(category, [0, 0])
        entry[0] += 1
        entry[1] += sum(len(f) for f in frames)
        if self._keep and len(self.frames) < KEEP_FRAMES:
            self.frames.extend(frames)

    @property
    def envelopes_sampled(self) -> int:
        return sum(n for n, _ in self.sampled.values())

    def bytes_by_category(
        self, counts: Dict[str, int], model_bytes: Dict[str, int]
    ) -> Dict[str, float]:
        """Real-codec bytes per category for a window with these exact
        message counts.  A category counted but never sampled (it only
        appeared while the tap was off) falls back to its size-model bytes
        times the sample's overall real/model ratio."""
        sampled_real = sum(b for _, b in self.sampled.values())
        sampled_model = sum(
            model_bytes[c] / counts[c] * n
            for c, (n, _) in self.sampled.items()
            if counts.get(c)
        )
        ratio = sampled_real / sampled_model if sampled_model else 1.0
        out: Dict[str, float] = {}
        for category, count in counts.items():
            sample = self.sampled.get(category)
            if sample:
                out[category] = sample[1] / sample[0] * count
            else:
                out[category] = model_bytes.get(category, 0) * ratio
        return out

    def decode_us_per_env(self) -> float:
        if not self.frames:
            return 0.0
        begin = time.perf_counter_ns()
        decoded = 0
        for frame in self.frames:
            _, envelopes = decode_frame(frame)
            decoded += len(envelopes)
        return (time.perf_counter_ns() - begin) / 1e3 / decoded


def unmapped_categories(counts: Dict[str, int]) -> List[str]:
    return sorted(c for c in counts if c not in CATEGORY_LAYER)


def by_layer(per_category: Dict[str, float]) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS_ON_WIRE}
    for category, value in per_category.items():
        out[CATEGORY_LAYER[category]] += value
    return out


class StackSampler:
    """1 kHz CPU-time sampler.  Each tick goes to the innermost frame whose
    file lies under ``src/repro/<layer>/`` or in the harness directory;
    stdlib frames in between are charged to whoever called them."""

    def __init__(self, repro_dir: str, harness_dir: str, scheduler: Any) -> None:
        self._repro_prefix = repro_dir.rstrip("/") + "/"
        self._harness_prefix = harness_dir.rstrip("/") + "/"
        self._scheduler = scheduler
        self._file_layer: Dict[str, Optional[str]] = {}
        self.by_layer: Dict[str, int] = {layer: 0 for layer in LAYERS_PROFILED}
        self.samples = 0
        self.peak_pending = 0
        self._previous: Any = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _layer_of(self, filename: str) -> Optional[str]:
        if filename.startswith(self._repro_prefix):
            package = filename[len(self._repro_prefix):].split("/", 1)[0]
            if package == "runtime":  # the sim engine's adapter
                package = "sim"
            return package if package in self.by_layer else "python"
        if filename.startswith(self._harness_prefix):
            return "harness"
        return None

    def _tick(self, signum: int, frame: Any) -> None:
        self.samples += 1
        pending = self._scheduler.pending
        if pending > self.peak_pending:
            self.peak_pending = pending
        cache = self._file_layer
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename, "")
            if layer == "":
                layer = cache[filename] = self._layer_of(filename)
            if layer is not None:
                self.by_layer[layer] += 1
                return
            frame = frame.f_back
        self.by_layer["python"] += 1


class Observers:
    """Listeners on the layers' public hooks.  They count only while the
    window is open and never call back into the program."""

    def __init__(self, env: Any) -> None:
        self._env = env
        self.open = False
        self.suspicions = 0
        self.false_suspicions = 0
        self.view_installs = 0
        self.deliveries = 0
        # crashed address -> (crash time, survivors still on a view holding it)
        self._view_waits: Dict[str, Tuple[float, set]] = {}
        self.view_change_s: List[float] = []

    def watch_node(self, node: Any) -> None:
        node.runtime.detector.add_listener(self._on_suspect)

    def watch_member(self, member: Any) -> None:
        member.add_view_listener(lambda event, me=member.me: self._on_view(me, event))
        member.add_delivery_listener(self._on_delivery)

    def note_crash(self, address: str, survivors: List[str]) -> None:
        for _, waiting in self._view_waits.values():
            waiting.discard(address)
        self._view_waits[address] = (self._env.now, set(survivors))

    def _on_suspect(self, address: str) -> None:
        if not self.open:
            return
        self.suspicions += 1
        env = self._env
        if env.has_process(address) and env.process(address).alive:
            self.false_suspicions += 1

    def _on_view(self, me: str, event: Any) -> None:
        if self.open:
            self.view_installs += 1
        if not self._view_waits:
            return
        members = event.view.members
        for crashed in list(self._view_waits):
            crash_time, waiting = self._view_waits[crashed]
            if me in waiting and crashed not in members:
                waiting.discard(me)
                if not waiting:
                    self.view_change_s.append(self._env.now - crash_time)
                    del self._view_waits[crashed]

    def _on_delivery(self, event: Any) -> None:
        if self.open:
            self.deliveries += 1


def cc_server(server: Any) -> Any:
    """The coordinator-cohort server currently behind a store or echo
    server.  The toolkit has no public accessor for it (README, "for later
    issues"), so this one function reads ``_service`` / ``_current``."""
    hierarchical = getattr(server, "_service", server)
    return hierarchical._current


class CCCounter:
    """Sums ``requests_executed`` / ``takeovers`` over every per-leaf
    server a worker has had (a leaf change replaces the server object)."""

    def __init__(self) -> None:
        self._servers: List[Any] = []

    def watch(self, server: Any, member: Any) -> None:
        # Registered after the server's own leaf-change listener, so the
        # fresh per-leaf server already exists when this one runs.
        def on_leaf_change(_leaf_member: Any) -> None:
            self._servers.append(cc_server(server))

        member.add_leaf_change_listener(on_leaf_change)

    def totals(self) -> Tuple[int, int]:
        return (
            sum(cc.requests_executed for cc in self._servers),
            sum(cc.takeovers for cc in self._servers),
        )


REFERENCE_PACE_NS = 700.0  # calibrate() on this sandbox in a quiet spell


def calibrate(rounds: int = 20_000) -> float:
    """ns per round of a fixed dict / heap / arithmetic loop that shares no
    code with the program: how fast the host is running right now."""
    counts: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    begin = time.perf_counter_ns()
    for i in range(rounds):
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        push(heap, ((i * 7919) % 1000, i))
        if len(heap) > 64:
            pop(heap)
    return (time.perf_counter_ns() - begin) / rounds


class HostPace:
    """Host seconds, raw and rescaled to the reference pace.

    This sandbox slows by up to half for tens of seconds at a time (other
    tenants), and a fixed loop slows with it, so every timed stretch is
    bracketed by two ``calibrate()`` readings and multiplied by reference /
    measured pace.  Ten-second blocks of identical simulator work varied
    by 15% raw and 5% rescaled.  The calibration itself is never inside a
    timed stretch."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.paces: List[float] = []
        self.restart()

    def restart(self) -> None:
        self._pace = calibrate()
        self.paces.append(self._pace)
        self._begin = time.perf_counter()

    def lap(self) -> Tuple[float, float]:
        """Close the stretch since the last lap: (raw s, rescaled s)."""
        raw = time.perf_counter() - self._begin
        before = self._pace
        self.restart()
        scaled = raw * REFERENCE_PACE_NS / ((before + self._pace) / 2.0)
        self.raw_s += raw
        self.scaled_s += scaled
        return raw, scaled

    def lap_if_due(self, every_s: float = 0.5) -> None:
        if time.perf_counter() - self._begin >= every_s:
            self.lap()

    @property
    def pace_x(self) -> float:
        """Median pace over the stretch / reference: 1.3 = a host 30% slow."""
        return statistics.median(self.paces) / REFERENCE_PACE_NS


def scheduler_probe(events: int = 200_000) -> float:
    """ns per event for a chain of ``after_call_once`` events on a bare
    Scheduler: the engine's floor, with no protocol above it."""
    scheduler = Scheduler()
    remaining = [events]

    def step(_arg: Any) -> None:
        remaining[0] -= 1
        if remaining[0]:
            scheduler.after_call_once(0.001, step, None)

    scheduler.after_call_once(0.001, step, None)
    begin = time.perf_counter_ns()
    scheduler.run()
    return (time.perf_counter_ns() - begin) / events
