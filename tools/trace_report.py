"""Trace one request and one whole-group broadcast through a hierarchy.

The demo workload behind ``make trace``: build a hierarchically organised
coordinator-cohort service, attach the causal tracer, issue one traced
client request and one traced treecast, and report:

* the request's critical path and its message count, audited against the
  paper's E1 claim with its own cohort bound applied (a coordinator-cohort
  request involves the leaf's cohort set, its first r = ``resiliency``
  members, and costs exactly ``2r`` messages: r requests + 1 reply + r-1
  result copies — a flat group with no stated resiliency pays 2n);
* the treecast's critical path, audited against E8 (stage count bounded
  by the fanout tree's depth);
* a Chrome trace-event JSON export (open in chrome://tracing or
  https://ui.perfetto.dev) and a text tree of the request trace.

Run::

    PYTHONPATH=src python -m tools.trace_report --out trace_demo.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

from repro import trace
from repro.core import (
    LargeGroupParams,
    ServiceRouter,
    TreecastRoot,
    attach_treecast,
    build_large_group,
    build_leader_group,
)
from repro.membership import GroupNode
from repro.net import FixedLatency
from repro.proc import Environment
from repro.toolkit import HierarchicalClient, attach_hierarchical_service

CC_CATEGORIES = ("cc-request", "cc-reply", "cc-result")


def run_demo(
    seed: int = 7,
    workers: int = 12,
    resiliency: int = 3,
    fanout: int = 4,
) -> Dict[str, Any]:
    """Run the traced demo workload; returns the full report (including
    the Chrome export under ``"chrome"``)."""
    env = Environment(seed=seed, latency=FixedLatency(0.002))
    params = LargeGroupParams(resiliency=resiliency, fanout=fanout)
    leaders = build_leader_group(env, "svc", params, gossip_interval=None)
    contacts = tuple(r.node.address for r in leaders)
    members = build_large_group(
        env, "svc", workers, params, contacts, gossip_interval=None
    )
    attach_treecast(members, resiliency=resiliency)
    roots = [TreecastRoot(r) for r in leaders]
    attach_hierarchical_service(members, lambda payload, client: ("ok", payload))
    env.run_for(5.0 + 0.25 * workers)

    client_node = GroupNode(env, "client")
    router = ServiceRouter(
        client_node, "svc", rpc=client_node.runtime.rpc, leader_contacts=contacts
    )
    client = HierarchicalClient(client_node, router, timeout=1.0)
    replies = []
    # Warm-up (untraced): resolve the leaf assignment, whose contacts are
    # the leaf's cohort set, and let the first reply bring that set up to
    # the leaf's view, so the traced request is pure E1 traffic — r
    # requests, 1 reply, r-1 result copies — with no discovery RPC mixed in.
    client.request("warm-up", replies.append)
    env.run_for(2.0)
    if not replies:
        raise RuntimeError("warm-up request got no reply; demo misconfigured")

    sink = trace.attach(env)
    collector = sink.collector

    with sink.root("cc-request", process="client") as request_root:
        client.request("traced", replies.append)
    env.run_for(2.0)

    manager_root = next(r for r in roots if r.replica.is_manager)
    with sink.root(
        "treecast", process=manager_root.node.address
    ) as broadcast_root:
        manager_root.broadcast("announce")
    env.run_for(3.0)

    # --- E1 audit: the traced request against the 2r prediction ----------
    assert router.cached_assignment is not None
    leaf_group = router.cached_assignment[0]
    leaf_size = sum(
        1
        for m in members
        if m.is_member and m.leaf_member is not None
        and m.leaf_member.group == leaf_group
    )
    cohort_set = min(resiliency, leaf_size)
    request_summary = trace.summarize(collector, request_root.trace_id)
    request_path = trace.critical_path(collector, request_root.trace_id)
    cc_messages = request_summary.messages(CC_CATEGORIES)

    # --- E8 audit: the traced broadcast against the stage bound ----------
    broadcast_summary = trace.summarize(collector, broadcast_root.trace_id)
    broadcast_path = trace.critical_path(collector, broadcast_root.trace_id)
    stages = None
    for span in collector.trace(broadcast_root.trace_id):
        if span.name == "treecast-start" and span.attrs:
            stages = span.attrs.get("stages")
            break

    return {
        "seed": seed,
        "workers": workers,
        "spans_recorded": collector.recorded,
        "request": {
            "trace_id": request_root.trace_id,
            "leaf_group": leaf_group,
            "leaf_size": leaf_size,
            "cohort_set": cohort_set,
            "cc_messages": cc_messages,
            "e1_prediction": 2 * cohort_set,
            "e1_match": cc_messages == 2 * cohort_set,
            "sends_by_category": dict(
                sorted(request_summary.sends_by_category.items())
            ),
            "hops": request_path.hops,
            "duration": request_path.duration,
        },
        "treecast": {
            "trace_id": broadcast_root.trace_id,
            "stages": stages,
            "sends": broadcast_summary.sends,
            "hops": broadcast_path.hops,
            "duration": broadcast_path.duration,
        },
        "request_path_text": request_path.describe(),
        "broadcast_path_text": broadcast_path.describe(),
        "request_tree_text": trace.render_tree(
            collector, request_root.trace_id, max_spans=80
        ),
        "chrome": trace.to_chrome_trace(collector.spans, clock_end=env.now),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.trace_report", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=12)
    parser.add_argument("--resiliency", type=int, default=3)
    parser.add_argument("--fanout", type=int, default=4)
    parser.add_argument(
        "--out", default="trace_demo.json",
        help="Chrome trace-event JSON output path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = run_demo(
        seed=args.seed,
        workers=args.workers,
        resiliency=args.resiliency,
        fanout=args.fanout,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report["chrome"], fh, indent=1)

    request = report["request"]
    print(f"traced demo: {args.workers} workers, seed {args.seed}, "
          f"{report['spans_recorded']} spans recorded")
    print()
    print("== E1 audit: one coordinator-cohort request ==")
    print(f"  leaf {request['leaf_group']} has n={request['leaf_size']} members, "
          f"cohort set r={request['cohort_set']}")
    print(f"  cc messages in trace: {request['cc_messages']} "
          f"(prediction 2r = {request['e1_prediction']}) "
          f"-> {'MATCH' if request['e1_match'] else 'MISMATCH'}")
    print(f"  per category: {request['sends_by_category']}")
    print(report["request_path_text"])
    print()
    print("== E8 audit: one whole-group treecast ==")
    treecast_info = report["treecast"]
    print(f"  planned stages: {treecast_info['stages']}, "
          f"total sends: {treecast_info['sends']}, "
          f"critical-path hops: {treecast_info['hops']}")
    print(report["broadcast_path_text"])
    print()
    print("== request trace tree ==")
    print(report["request_tree_text"])
    print()
    print(f"Chrome trace-event JSON written to {args.out} "
          f"({len(report['chrome']['traceEvents'])} events)")
    return 0 if request["e1_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
