"""Deterministic causal tracing for the simulated protocol stack.

The subsystem follows one request (or broadcast, or view change) through
every layer: the network records a span per datagram send/delivery/drop
with causal parent edges, protocol modules annotate flushes, view
installs, suspicions and treecast stages through the guarded
:class:`~repro.trace.api.TraceSink` entry points, and the analysis side
(:mod:`~repro.trace.analysis`, :mod:`~repro.trace.export`) turns the
span store into critical paths, Chrome trace-event JSON, and text trees.

Usage::

    from repro import trace

    sink = trace.attach(env)            # mid-run attach is fine
    with sink.root("request", process="client-0"):
        client.request(...)
    env.run_for(2.0)
    report = trace.critical_path(sink.collector, trace_id=1)
"""

from repro.trace.analysis import (
    CriticalPath,
    TraceSummary,
    critical_path,
    summarize,
)
from repro.trace.api import TraceSink, attach, detach
from repro.trace.collector import TraceCollector
from repro.trace.export import render_tree, to_chrome_trace
from repro.trace.span import (
    KIND_DELIVER,
    KIND_DROP,
    KIND_LOCAL,
    KIND_SEND,
    KINDS,
    Span,
)

__all__ = [
    "CriticalPath",
    "KIND_DELIVER",
    "KIND_DROP",
    "KIND_LOCAL",
    "KIND_SEND",
    "KINDS",
    "Span",
    "TraceCollector",
    "TraceSink",
    "TraceSummary",
    "attach",
    "critical_path",
    "detach",
    "render_tree",
    "summarize",
    "to_chrome_trace",
]
