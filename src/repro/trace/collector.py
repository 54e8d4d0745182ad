"""Span storage and the trace query API.

A :class:`TraceCollector` allocates span/trace ids (plain counters, in
event order — deterministic for a given seed) and stores finished and
in-flight spans either unboundedly (``capacity=None``, the default for
tests and offline analysis) or in a ring buffer that keeps the newest
``capacity`` spans (for long traced runs where only the recent window
matters, mirroring ISIS-era flight recorders).

Protocol code never touches this class — it talks to the guarded
:class:`repro.trace.api.TraceSink` entry points (enforced by repro-lint
RL008).  The collector is the *analysis* surface: queries by trace or
process, ancestor/descendant walks, and the raw span list consumed by
the critical-path analyzer and the exporters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional

from repro.trace.span import Span


class TraceCollector:
    """Deterministic span store with ring-buffer or full capture."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for full capture)")
        self._spans = deque(maxlen=capacity) if capacity is not None else []
        self._next_span = 1
        self._next_trace = 1
        self._recorded = 0

    # ------------------------------------------------------------- recording

    def new_span(
        self,
        kind: str,
        name: str,
        category: str = "span",
        src: Optional[str] = None,
        dst: Optional[str] = None,
        begin: float = 0.0,
        end: Optional[float] = None,
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Allocate and store a span.  ``parent=None`` starts a new trace."""
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            span_id=self._next_span,
            trace_id=trace_id,
            parent_id=parent_id,
            kind=kind,
            name=name,
            category=category,
            src=src,
            dst=dst,
            begin=begin,
            end=end,
            attrs=attrs,
        )
        self._next_span += 1
        self._recorded += 1
        self._spans.append(span)
        return span

    def clear(self) -> None:
        """Drop stored spans (id counters keep running)."""
        self._spans.clear()

    # --------------------------------------------------------------- queries

    @property
    def spans(self) -> List[Span]:
        """All retained spans in allocation (= event) order."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def recorded(self) -> int:
        """Total spans ever recorded (retained + evicted)."""
        return self._recorded

    @property
    def evicted(self) -> int:
        """Spans lost to the ring buffer (0 under full capture)."""
        return self._recorded - len(self._spans)

    def trace_ids(self) -> List[int]:
        return sorted({s.trace_id for s in self._spans})

    def trace(self, trace_id: int) -> List[Span]:
        """All retained spans of one trace, in event order."""
        return [s for s in self._spans if s.trace_id == trace_id]

    def by_process(self, address: str) -> List[Span]:
        """Spans charged to one process (see :attr:`Span.process`)."""
        return [s for s in self._spans if s.process == address]

    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self._spans if s.kind == kind]

    def span(self, span_id: int) -> Optional[Span]:
        for s in self._spans:
            if s.span_id == span_id:
                return s
        return None

    def roots(self, trace_id: Optional[int] = None) -> List[Span]:
        """Spans with no retained parent (trace roots; under a ring
        buffer also spans whose parent was evicted)."""
        retained = {s.span_id for s in self._spans}
        out = []
        for s in self._spans:
            if trace_id is not None and s.trace_id != trace_id:
                continue
            if s.parent_id is None or s.parent_id not in retained:
                out.append(s)
        return out

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span_id]

    def ancestors(self, span_id: int) -> List[Span]:
        """Parent chain from the given span up to its trace root
        (nearest first).  Stops early if an ancestor was evicted."""
        index = {s.span_id: s for s in self._spans}
        chain: List[Span] = []
        current = index.get(span_id)
        while current is not None and current.parent_id is not None:
            current = index.get(current.parent_id)
            if current is None:
                break
            chain.append(current)
        return chain

    def descendants(self, span_id: int) -> List[Span]:
        """Everything causally downstream of a span, in event order."""
        reached = {span_id}
        out: List[Span] = []
        # Spans are stored in allocation order and a parent is always
        # allocated before its children, so one forward pass suffices.
        for s in self._spans:
            if s.parent_id in reached:
                reached.add(s.span_id)
                out.append(s)
        return out

    def counts(self) -> Dict[str, int]:
        """Retained span counts per kind."""
        out: Dict[str, int] = {}
        for s in self._spans:
            out[s.kind] = out.get(s.kind, 0) + 1
        return out
