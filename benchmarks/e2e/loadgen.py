"""Seeded open-loop schedule: arrival times, Zipf keys, operations and
fault times.  Everything here is drawn from ``random.Random(seed)`` in
the harness; the program under test only ever sees the finished lists.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

from catalog import KEYS, ZIPF_S, Workload

GET, PUT = "get", "put"


@dataclass(frozen=True)
class Request:
    index: int
    due: float  # logical seconds after the window opens
    op: str
    key: str


@dataclass(frozen=True)
class Schedule:
    requests: Tuple[Request, ...]
    fault_times: Tuple[float, ...]  # logical seconds after the window opens
    fault_seed: int  # seeds the order in which leaves lose their coordinator
    length: float  # logical seconds; the last request is due exactly at the end


def key_name(k: int) -> str:
    return f"k{k}"


def preload_value(k: int) -> Tuple[str, int]:
    return ("pre", k)


def request_count(workload: Workload, scale: float) -> int:
    """Scaled request count, rounded down to a whole number of logical
    seconds of load: every periodic background timer (heartbeats 0.2 s,
    gossip 0.5 s) then fires equally often in every run's window."""
    count = round(workload.requests * scale)
    whole_seconds = int(count / workload.rate)
    if whole_seconds >= 1:
        return round(whole_seconds * workload.rate)
    return max(200, count)  # smoke-test sizes


def make_schedule(workload: Workload, seed: int, scale: float) -> Schedule:
    rng = random.Random(seed)
    count = request_count(workload, scale)
    length = count / workload.rate
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(KEYS))
    )
    total = cumulative[-1]
    draws: List[Tuple[float, str, str]] = []
    raw = 0.0
    for _ in range(count):
        raw += rng.expovariate(workload.rate)
        k = bisect.bisect_left(cumulative, rng.random() * total)
        op = PUT if rng.random() < workload.put_share else GET
        draws.append((raw, op, key_name(k)))
    # Exponential gaps, normalised so that the count fills the window exactly
    # (a Poisson process conditioned on its count): without this the window
    # length, and with it the background chatter per request, varies by 1/sqrt(count).
    stretch = length / raw
    requests = tuple(
        Request(index, due * stretch, op, key) for index, (due, op, key) in enumerate(draws)
    )
    fault_times: List[float] = []
    if workload.fault_interval > 0.0:
        t = workload.fault_interval
        while t < length - workload.quiet_tail:
            fault_times.append(t)
            t += workload.fault_interval
    return Schedule(requests, tuple(fault_times), rng.getrandbits(32), length)
