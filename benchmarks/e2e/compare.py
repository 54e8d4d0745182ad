"""``run.py --compare A.json B.json``: one row per (workload, metric).

Each file holds the JSON documents ``run.py`` printed, one per line; several
documents of one workload (other seeds, repeated runs) give a median and a
spread.  Verdicts follow the choosing-metrics guide: a metric whose
run-to-run spread is wider than its bound is *unresolved*, never unchanged.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple

import catalog

BETTER = {m.name: m.better for m in catalog.END_TO_END + catalog.PER_LAYER}


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, over every document in the file."""
    out: Dict[str, Dict[str, List[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            document = json.loads(line)
            metrics = out.setdefault(document["workload"], {})
            for section in ("end_to_end", "per_layer"):
                for name, entry in document.get(section, {}).items():
                    metrics.setdefault(name, []).append(entry["value"])
    return out


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(centre) if centre else 0.0


def verdict(name: str, a: List[float], b: List[float]) -> Tuple[str, float]:
    """(verdict, change as a share of A's median; positive = worse)."""
    bound = catalog.COMPARE_BOUNDS[name]
    centre_a, centre_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if BETTER[name] == "lower" else -1.0
    if centre_a == 0.0:
        # nothing to take a share of (failed_share, outages without faults): any rise is a regression
        worse = sign * (centre_b - centre_a)
        return ("regressed" if worse > 0 else "improved" if worse < 0 else "within bound"), worse
    worse = sign * (centre_b - centre_a) / abs(centre_a)
    if max(spread(a), spread(b)) > bound > 0.0:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "within bound", worse


def main(path_a: str, path_b: str) -> int:
    a, b = load(path_a), load(path_b)
    regressed = False
    print(f"{'workload':14s} {'metric':22s} {'A':>14s} {'B':>14s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in (w.name for w in catalog.WORKLOADS):
        for name in catalog.COMPARE_BOUNDS:
            if name not in a.get(workload, {}) or name not in b.get(workload, {}):
                continue
            values_a, values_b = a[workload][name], b[workload][name]
            result, change = verdict(name, values_a, values_b)
            regressed |= result == "regressed"
            print(
                f"{workload:14s} {name:22s} {statistics.median(values_a):14.4f} "
                f"{statistics.median(values_b):14.4f} {change:+8.2%} "
                f"{catalog.COMPARE_BOUNDS[name]:6.1%}  {result}"
            )
    return 1 if regressed else 0
