"""Ungated probe: the kv_read store at n=32 on ``AsyncioRuntime`` with
``time_scale=1.0`` (logical seconds are host seconds).  Recorded so a
later real-engine workload has a baseline; README.md says why it is not
gated on this host.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.metrics import LatencySample
from repro.runtime import AsyncioRuntime

from catalog import NETWORK_SEED, WORKLOAD_BY_NAME
from cluster import Cluster
from loadgen import make_schedule, preload_value

PROBE_N = 32
PROBE_REQUESTS = 1500  # at scale 1.0
PROBE_RATE = 150.0


def run_probe(seed: int, scale: float) -> Dict[str, float]:
    workload = WORKLOAD_BY_NAME["kv_read"]
    schedule = make_schedule(workload, seed, scale * PROBE_REQUESTS / workload.requests)
    count = len(schedule.requests)
    stretch = workload.rate / PROBE_RATE  # same gaps, at the probe's rate
    runtime = AsyncioRuntime(seed=NETWORK_SEED, time_scale=1.0)
    try:
        cluster = Cluster(workload, PROBE_N, runtime=runtime)
        env = cluster.env
        cluster.wait_placed()
        cluster.preload()
        latency: List[float] = []
        late: List[float] = []
        wrong: List[Any] = []
        t0 = env.now + 0.1

        def fire(request) -> None:
            due_at = t0 + request.due * stretch
            late.append(env.now - due_at)
            expect = preload_value(int(request.key[1:]))

            def on_value(value: Any) -> None:
                if value == expect:
                    latency.append(env.now - due_at)
                else:
                    wrong.append(value)

            cluster.issue(request, None, on_value)

        for request in schedule.requests:
            env.scheduler.at_call(t0 + request.due * stretch, fire, request)
        cpu_begin = time.process_time()
        env.run(until=t0 + schedule.length * stretch + 2.0)
        cpu_s = time.process_time() - cpu_begin
    finally:
        runtime.close()
    if wrong or len(latency) != count:
        raise RuntimeError(
            f"asyncio probe: {len(latency)}/{count} correct replies, {len(wrong)} wrong"
        )
    sample = LatencySample(latency)
    return {
        "runtime.asyncio.lat_p50_ms": 1e3 * sample.p50,
        "runtime.asyncio.lat_p99_ms": 1e3 * sample.p99,
        "runtime.asyncio.cpu_us_per_req": 1e6 * cpu_s / count,
        "harness.gen_late_max_ms": 1e3 * max(late),
    }
