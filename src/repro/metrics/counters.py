"""Experiment-side measurement helpers.

Network statistics live in :mod:`repro.net.stats`; this module adds the
derived quantities the paper argues in terms of: messages per request,
latency percentile summaries, and the growth exponent of a cost curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.net.stats import StatsSnapshot


def data_messages(delta: StatsSnapshot, categories: Iterable[str]) -> int:
    """Sum of logical messages in the given stat categories."""
    return sum(delta.by_category.get(c, 0) for c in categories)


@dataclass
class LatencySample:
    """Collects request/operation latencies during a run."""

    samples: List[float] = field(default_factory=list)

    def add(self, latency: float) -> None:
        self.samples.append(latency)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) on log(x): ~1 linear, ~2 quadratic.

    The E2 benchmark uses this to show flat traffic growing with exponent
    ≈ 2 while hierarchical traffic grows with exponent ≈ 1.
    """
    pts = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    n = len(pts)
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(x * x for x, _ in pts)
    sxy = sum(x * y for x, y in pts)
    denominator = n * sxx - sx * sx
    if denominator == 0:
        raise ValueError("degenerate x values")
    return (n * sxy - sx * sy) / denominator
