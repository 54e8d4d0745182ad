#!/usr/bin/env python3
"""End-to-end request benchmark: one command, every metric.

Driver contract (BENCHMARK.json):
    python3 benchmarks/e2e/run.py --workload kv_read --seed 1 --seconds 12 --trace 0
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).

For people:
    run.py --all                      both passes of every workload, one JSON document each
    run.py --workload W [--timed|--traced] [--seed N] [--scale X] [--n N]
    run.py --list                     metric names, units, directions, bounds
    run.py --compare A.json B.json    verdict per (workload, metric)
    run.py --self-test                test_smoke.py under pytest

Every pass runs in a fresh interpreter with PYTHONHASHSEED=0 (the sim's
RNG tree hashes fork labels), so a seed names one exact run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HARNESS_DIR = Path(__file__).resolve().parent
SRC = HARNESS_DIR.parents[1] / "src"
CHILD_TIMEOUT_S = 170

import catalog
import compare


class RunFailed(RuntimeError):
    pass


# -- one pass, in a fresh interpreter -----------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """``--child``: run one pass in this process and print its result."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stderr.write("run.py --child needs PYTHONHASHSEED=0\n")
        return 2
    if args.child == "asyncio":
        from asyncio_probe import run_probe

        result: Dict[str, Any] = {"metrics": run_probe(args.seed, args.scale)}
    else:
        from onepass import CheckFailed, run_pass
        from cluster import SetupError

        try:
            result = run_pass(
                catalog.WORKLOAD_BY_NAME[args.workload], args.seed, args.scale,
                traced=args.child == "traced", n=args.n,
            )
        except (CheckFailed, SetupError) as exc:
            sys.stderr.write(f"run.py: {args.workload} {args.child} pass failed: {exc}\n")
            return 1
    print(json.dumps(result))
    return 0


def spawn(kind: str, workload: str, seed: int, scale: float, n: Optional[int]) -> Dict[str, Any]:
    command = [
        sys.executable, str(HARNESS_DIR / "run.py"), "--child", kind,
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
    ]
    if n:
        command += ["--n", str(n)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} {kind} pass exceeded {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{workload} {kind} pass exited {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# -- a workload: one or both passes, merged ---------------------------------------------------

GUARD_KEYS = ("messages", "events_processed", "window_messages", "window_events",
              "completions", "latency_sha1")


def run_workload(
    name: str, seed: int, scale: float, n: Optional[int], timed: bool, traced: bool
) -> Dict[str, Any]:
    """Run the requested passes and merge them into one document."""
    timed_run = spawn("timed", name, seed, scale, n) if timed else None
    traced_run = spawn("traced", name, seed, scale, n) if traced else None
    first = timed_run or traced_run
    per_layer_source = dict((traced_run or timed_run)["metrics"])
    if timed_run and traced_run:
        differing = [k for k in GUARD_KEYS if timed_run["guard"][k] != traced_run["guard"][k]]
        if differing:
            raise RunFailed(
                f"{name}: tracing changed the run: "
                + ", ".join(f"{k} {timed_run['guard'][k]} != {traced_run['guard'][k]}" for k in differing)
            )
        for key in ("sim.events_per_s", "harness.cpu_us_per_req", "harness.raw_setup_s",
                    "harness.raw_req_per_s", "harness.host_pace_x"):
            per_layer_source[key] = timed_run["metrics"][key]
        per_layer_source["harness.trace_overhead_x"] = (
            traced_run["untapped_scaled_s"] / timed_run["untapped_scaled_s"]
        )
    if traced_run and name == "kv_read":
        per_layer_source.update(spawn("asyncio", name, seed, scale, None)["metrics"])

    document: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "n": first["n"],
        "correct": first["wrong"] == 0, "attempted": first["attempted"], "failed": first["failed"],
        "guard": first["guard"], "faults": first["faults"], "by_category": first["by_category"],
    }
    if timed_run:
        document["end_to_end"] = {
            m.name: {"value": timed_run["metrics"][m.name], "unit": m.unit,
                     "better": m.better, "bound": m.bound}
            for m in catalog.END_TO_END
        }
        for name in ("setup_s", "req_per_s"):  # as the clock read them, before rescaling to the reference pace
            document["end_to_end"][name]["raw"] = timed_run["metrics"][f"harness.raw_{name}"]
        document["end_to_end"]["req_per_s"]["host_pace_x"] = timed_run["metrics"]["harness.host_pace_x"]
    if traced_run:
        # a metric this workload does not measure (asyncio probe off kv_read) reads 0
        document["per_layer"] = {
            m.name: {"value": per_layer_source.get(m.name, 0.0), "unit": m.unit, "better": m.better}
            for m in catalog.PER_LAYER
        }
    return document


def contract_line(document: Dict[str, Any], section: str) -> str:
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in document[section].items()
    }
    return json.dumps({
        "correct": document["correct"], "attempted": document["attempted"],
        "failed": document["failed"], "metrics": metrics,
    })


def layer_table(document: Dict[str, Any]) -> str:
    """The per-layer numbers of one traced run as a text table."""
    per_layer = document["per_layer"]
    rows = [("layer", "self us/req", "msgs/req", "wire bytes/req")]
    for layer in catalog.LAYERS_PROFILED:
        cells = []
        for suffix in ("self_us_per_req", "msgs_per_req", "wire_bytes_per_req"):
            entry = per_layer.get(f"{layer}.{suffix}")
            cells.append(f"{entry['value']:.2f}" if entry else "-")
        rows.append((layer, *cells))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows)


def list_metrics() -> None:
    print("workloads:")
    for w in catalog.WORKLOADS:
        print(f"  {w.name:14s} {w.why}")
    print("end-to-end (gated):")
    for m in catalog.END_TO_END:
        print(f"  {m.name:34s} {m.unit:10s} {m.better:6s} bound {m.bound:.0%}  {m.definition}")
    print("per-layer:")
    for m in catalog.PER_LAYER:
        print(f"  {m.name:34s} {m.unit:10s} {m.better:6s}  {m.definition}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, help="request-count scale; overrides --seconds")
    parser.add_argument("--n", type=int, help="override the worker count (smoke tests only)")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--timed", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--child", choices=("timed", "traced", "asyncio"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = catalog.scale_for_seconds(args.seconds)

    if args.list:
        list_metrics()
        return 0
    if args.compare:
        return compare.main(*args.compare)
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"run.py: {SRC}/repro not found: the benchmark runs the program from source\n")
        return 2
    if args.child:
        sys.path.insert(0, str(SRC))
        return child_main(args)
    if args.self_test:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(HARNESS_DIR / "test_smoke.py")],
            check=False,
        ).returncode
    names = [w.name for w in catalog.WORKLOADS] if args.all else [args.workload]
    if names == [None]:
        parser.error("need --workload, --all, --list, --compare or --self-test")
    try:
        if args.trace is not None:
            # The driver's form: the traced form also runs the timed pass, for the
            # determinism guard, the tracing overhead and the timed-pass rates.
            document = run_workload(names[0], args.seed, args.scale, args.n, True, args.trace == 1)
            print(contract_line(document, "per_layer" if args.trace else "end_to_end"))
            return 0
        both = not (args.timed or args.traced)
        for name in names:
            document = run_workload(
                name, args.seed, args.scale, args.n, both or args.timed, both or args.traced
            )
            if "per_layer" in document:
                sys.stderr.write(f"{name}\n{layer_table(document)}\n")
            print(json.dumps(document))
    except RunFailed as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
