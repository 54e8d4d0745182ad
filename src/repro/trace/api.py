"""Guarded trace entry points — the only trace surface protocol code sees.

The hook contract (enforced by repro-lint RL008): protocol modules never
import the collector or construct spans themselves.  They read the
network's ``trace`` attribute — ``None`` when tracing is off, a
:class:`TraceSink` when on — and guard every hook with one attribute
load and a ``None`` check, which is the entire disabled-path cost::

    trace = self.process.env.network.trace
    if trace is not None:
        trace.local("suspicion", category="failure", name=address)

Causal propagation needs no per-protocol plumbing: the network calls
:meth:`TraceSink.on_deliver_begin` before handing a datagram to its
endpoint and :meth:`on_deliver_end` after, so any send issued while a
delivery callback runs is automatically parented to that delivery span.
Application code starts a fresh request trace with :meth:`root`;
protocol code groups multi-send operations with :meth:`span`.

The sink must never perturb the simulation: it draws no randomness,
schedules no events and mutates nothing but its own span store, so a
traced run's behaviour fingerprint is byte-identical to an untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from repro.net.message import payload_category
from repro.trace.collector import TraceCollector
from repro.trace.span import (
    KIND_DELIVER,
    KIND_DROP,
    KIND_LOCAL,
    KIND_SEND,
    Span,
)

_USE_CURRENT = object()  # sentinel: span() defaults to the current parent


class TraceSink:
    """Per-environment tracing frontend bound to one collector."""

    __slots__ = ("collector", "_scheduler", "_current")

    def __init__(self, collector: TraceCollector, scheduler: Any) -> None:
        self.collector = collector
        self._scheduler = scheduler
        self._current: Optional[Span] = None

    # ----------------------------------------------------------- context

    @property
    def current(self) -> Optional[Span]:
        """The span new work is currently parented to (or ``None``)."""
        return self._current

    def context_ids(self) -> Optional[Tuple[int, int]]:
        """(trace_id, span_id) of the current span — what diagnostics
        (e.g. sanitizer violations) attach to point at causal history."""
        span = self._current
        if span is None:
            return None
        return (span.trace_id, span.span_id)

    # ------------------------------------------------- network hook points

    def on_send(self, envelope: Any, category: str) -> None:
        """Called by the network for every datagram put on the wire."""
        span = self.collector.new_span(
            KIND_SEND,
            category,
            category=category,
            src=envelope.src,
            dst=envelope.dst,
            begin=self._scheduler.now,
            parent=self._current,
        )
        envelope.trace = span

    def on_deliver_begin(self, envelope: Any) -> Tuple[Optional[Span], Span]:
        """Open a delivery span and make it the current context.  Returns
        a token for :meth:`on_deliver_end`."""
        now = self._scheduler.now
        parent = envelope.trace
        if parent is not None and parent.end is None:
            parent.end = now  # the send span covers the wire flight
        span = self.collector.new_span(
            KIND_DELIVER,
            payload_category(envelope.payload),
            category=payload_category(envelope.payload),
            src=envelope.src,
            dst=envelope.dst,
            begin=now,
            parent=parent,
        )
        prev = self._current
        self._current = span
        return (prev, span)

    def on_deliver_end(self, token: Tuple[Optional[Span], Span]) -> None:
        prev, span = token
        if span.end is None:
            span.end = self._scheduler.now
        self._current = prev

    def on_drop(self, envelope: Any) -> None:
        """Record a dropped datagram (partition, loss, or dead endpoint)."""
        now = self._scheduler.now
        parent = envelope.trace if envelope.trace is not None else self._current
        if parent is not None and parent.end is None:
            parent.end = now
        self.collector.new_span(
            KIND_DROP,
            "drop",
            category=payload_category(envelope.payload),
            src=envelope.src,
            dst=envelope.dst,
            begin=now,
            end=now,
            parent=parent,
        )

    # ------------------------------------------------ protocol annotations

    def local(
        self,
        name: str,
        category: str = "event",
        process: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record an instantaneous protocol event under the current span."""
        now = self._scheduler.now
        return self.collector.new_span(
            KIND_LOCAL,
            name,
            category=category,
            src=process,
            begin=now,
            end=now,
            parent=self._current,
            attrs=attrs or None,
        )

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "span",
        parent: Any = _USE_CURRENT,
        process: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a span for the duration of a ``with`` block; sends issued
        inside are parented to it.  ``parent`` defaults to the current
        span; pass an explicit span (e.g. a retransmission's original
        send context) or ``None`` to start a new trace."""
        resolved = self._current if parent is _USE_CURRENT else parent
        span = self.collector.new_span(
            KIND_LOCAL,
            name,
            category=category,
            src=process,
            begin=self._scheduler.now,
            parent=resolved,
            attrs=attrs or None,
        )
        prev = self._current
        self._current = span
        try:
            yield span
        finally:
            if span.end is None:
                span.end = self._scheduler.now
            self._current = prev

    def root(
        self,
        name: str,
        category: str = "request",
        process: Optional[str] = None,
        **attrs: Any,
    ) -> Any:
        """Open a new *root* span (a fresh trace) — how application code
        marks the start of one request, broadcast, or experiment step."""
        return self.span(
            name, category=category, parent=None, process=process, **attrs
        )


# ------------------------------------------------------------ installation


def attach(
    env: Any,
    capacity: Optional[int] = None,
    collector: Optional[TraceCollector] = None,
) -> TraceSink:
    """Enable tracing on an environment (mid-run attach is fine, like the
    sanitizer: datagrams already in flight start fresh traces).  Returns
    the sink; its ``.collector`` is the query surface."""
    existing = env.network.trace
    if existing is not None:
        return existing
    if collector is None:
        collector = TraceCollector(capacity=capacity)
    sink = TraceSink(collector, env.scheduler)
    env.network.trace = sink
    return sink


def detach(env: Any) -> Optional[TraceCollector]:
    """Disable tracing; the collector (returned) keeps its spans."""
    sink = env.network.trace
    env.network.trace = None
    return sink.collector if sink is not None else None
