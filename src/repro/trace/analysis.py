"""Critical-path analysis over collected traces.

The paper's scaling claims are statements about per-request message
flows: a coordinator-cohort request costs ``2n`` messages (E1), a
whole-group broadcast in a hierarchical group fans out through log-depth
stages (E8).  Given one trace — the set of spans causally downstream of
a root — this module computes exactly those quantities:

* :func:`summarize` — span/message/drop counts per trace, message counts
  per category (what E1's ``2n`` audit compares against), begin/end.
* :func:`critical_path` — the latency-dominating causal chain: the walk
  from the root to the latest-finishing span.  Its *depth in sends* is
  the number of sequential message hops, which for a treecast broadcast
  is the E8 stage count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.trace.collector import TraceCollector
from repro.trace.span import KIND_DELIVER, KIND_DROP, KIND_LOCAL, KIND_SEND, Span


@dataclass
class TraceSummary:
    """Aggregate shape of one trace."""

    trace_id: int
    spans: int = 0
    sends: int = 0
    delivers: int = 0
    drops: int = 0
    locals: int = 0
    begin: Optional[float] = None
    end: Optional[float] = None
    sends_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.begin is None or self.end is None:
            return 0.0
        return self.end - self.begin

    def messages(self, categories: Optional[Sequence[str]] = None) -> int:
        """Logical messages (send spans) in the trace; restrict to the
        given categories to audit one protocol's cost (e.g. E1 counts
        only the coordinator-cohort categories)."""
        if categories is None:
            return self.sends
        return sum(self.sends_by_category.get(c, 0) for c in categories)


@dataclass
class CriticalPath:
    """The latency-dominating chain of one trace.

    ``steps`` runs root-first; ``hops`` counts the send spans along it —
    the number of *sequential* message transmissions, i.e. the causal
    depth that E8's log-stage claim bounds.
    """

    trace_id: int
    steps: List[Span] = field(default_factory=list)
    duration: float = 0.0
    hops: int = 0

    def describe(self) -> str:
        """Multi-line text rendering: one step per line, root first."""
        lines = [
            f"critical path of trace {self.trace_id}: "
            f"{len(self.steps)} steps, {self.hops} message hops, "
            f"{self.duration:.6f}s"
        ]
        base = self.steps[0].begin if self.steps else 0.0
        for span in self.steps:
            route = ""
            if span.kind in (KIND_SEND, KIND_DELIVER, KIND_DROP):
                route = f" {span.src}->{span.dst}"
            lines.append(
                f"  +{span.begin - base:.6f}s [{span.kind:>7}] "
                f"{span.name}{route} ({span.duration:.6f}s)"
            )
        return "\n".join(lines)


def summarize(collector: TraceCollector, trace_id: int) -> TraceSummary:
    """Aggregate counts for one trace (see :class:`TraceSummary`)."""
    summary = TraceSummary(trace_id=trace_id)
    for span in collector.trace(trace_id):
        summary.spans += 1
        if span.kind == KIND_SEND:
            summary.sends += 1
            summary.sends_by_category[span.category] = (
                summary.sends_by_category.get(span.category, 0) + 1
            )
        elif span.kind == KIND_DELIVER:
            summary.delivers += 1
        elif span.kind == KIND_DROP:
            summary.drops += 1
        elif span.kind == KIND_LOCAL:
            summary.locals += 1
        if summary.begin is None or span.begin < summary.begin:
            summary.begin = span.begin
        closed = span.end if span.end is not None else span.begin
        if summary.end is None or closed > summary.end:
            summary.end = closed
    return summary


def critical_path(collector: TraceCollector, trace_id: int) -> CriticalPath:
    """The root-to-leaf causal chain ending at the latest-finishing span.

    The chain is found backwards: pick the span of the trace with the
    greatest completion time (ties broken by span id, which is event
    order — deterministic), then follow parent edges up to the root.
    Under a ring buffer the walk stops at the oldest retained ancestor.
    """
    spans = collector.trace(trace_id)
    result = CriticalPath(trace_id=trace_id)
    if not spans:
        return result
    index = {s.span_id: s for s in spans}

    def completion(span: Span) -> float:
        return span.end if span.end is not None else span.begin

    tail = max(spans, key=lambda s: (completion(s), s.span_id))
    chain = [tail]
    current = tail
    while current.parent_id is not None:
        current = index.get(current.parent_id)
        if current is None:
            break
        chain.append(current)
    chain.reverse()
    result.steps = chain
    result.duration = completion(tail) - chain[0].begin
    result.hops = sum(1 for s in chain if s.kind == KIND_SEND)
    return result
