"""repro-lint rule visitors.

Each rule is a small :class:`ast.NodeVisitor` subclass with a stable code
(``RL001``…), a one-line description and a fix-hint.  Rules are pure
syntax: they flag *patterns* that are overwhelmingly bugs in a
deterministic discrete-event simulation, and every flag can be silenced
per line with ``# repro-lint: disable=RLxxx`` when a human has judged the
use safe.

The determinism contract the rules enforce (DESIGN.md, PR 1's frozen
delivery digests):

* simulated time is the only clock — wall-clock reads make runs
  unreproducible (RL001);
* all randomness flows from the seeded :class:`repro.sim.rand.SimRandom`
  (RL002);
* protocol decisions must not depend on Python's per-process set/dict
  hash ordering (RL003) or on object identity (RL004);
* mutable default arguments silently share state across calls (RL005);
* float equality on simulated time misfires after arithmetic (RL006);
* the event heap is owned by the scheduler alone (RL007);
* protocol code reaches the causal tracer only through the guarded
  ``network.trace`` sink — never the collector or span internals
  (RL008), so tracing stays observation-only and zero-cost when off;
* the protocol stack is engine-agnostic: only ``repro/sim/`` itself and
  the runtime backends in ``repro/runtime/`` may import ``repro.sim``
  (RL009) — everything else programs against the engine contract in
  :mod:`repro.runtime.api`;
* transport acks are private to ``repro/transport/`` — a layer that
  hand-builds a ``SegmentAck`` bypasses the delayed/piggybacked-ack
  bookkeeping (RL010);
* the event-core hot loops must not let per-event allocations *escape*
  the iteration (RL011) — loop-local scratch that dies in place is fine,
  a closure handed to the scheduler or a container stored onto an
  attribute is not;
* raw sockets and byte-level serializers are confined to the wire layer
  (RL015) — only ``repro/net/wire/``, ``repro/runtime/
  socket_backend.py`` and ``repro/deploy/`` may import ``socket`` /
  ``struct`` / ``pickle`` / ``marshal`` / ``json``; anywhere else is a
  second, unversioned wire format in the making.

Beyond these per-file rules, ``tools/lint/flow`` adds three
whole-program passes over a project-wide call graph (run with
``--flow``): RL012 interprocedural determinism taint (wall-clock /
random / identity / set-order values reaching scheduler deadlines,
payload fields, protocol state or digest inputs, reported with the full
source→sink chain), RL013 handler exhaustiveness (every wire-sent
message kind has a registered handler; no dead handlers) and RL014
await-atomicity (no read-modify-write of shared state spanning an
``await``).  Flow findings reuse this module's :class:`Finding` type so
suppression and baselines apply unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    @property
    def key(self) -> Tuple[str, str]:
        """Baseline bucket: findings are grandfathered per (path, code)."""
        return (self.path, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintContext:
    """Per-file facts the rules condition on."""

    path: str  # repo-relative posix path
    is_protocol: bool  # inside a protocol package (ordering-sensitive)
    allow_random: bool  # sim/rand.py: the one home of stdlib random
    allow_scheduler_internals: bool  # sim/scheduler.py itself
    # repro/sim/ and repro/runtime/: the only packages that may import
    # the simulator (RL009 boundary).
    allow_sim_import: bool = False
    # repro/transport/: the one layer that may construct SegmentAck
    # (RL010 boundary — ack policy, incl. delayed/piggybacked acks,
    # lives entirely inside the transport).
    allow_segment_ack: bool = False
    # Event-core hot-loop files (scheduler, network):
    # RL011 polices per-event allocations inside their loops.
    hot_event_loop: bool = False
    # repro/net/wire/, repro/runtime/socket_backend.py and repro/deploy/:
    # the only homes of raw sockets and byte-level serialization (RL015
    # boundary — everything else speaks payload objects and envelopes).
    allow_wire_serialization: bool = False


class Rule(ast.NodeVisitor):
    """Base class: collects findings, knows its code and fix-hint."""

    code = "RL000"
    title = ""
    hint = ""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                hint=self.hint,
            )
        )


def _call_name(node: ast.AST) -> Optional[str]:
    """``foo(...)`` -> "foo", anything else -> None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


class WallClockRule(Rule):
    """RL001: no wall-clock time sources anywhere in the simulation."""

    code = "RL001"
    title = "wall-clock time source in simulation code"
    hint = (
        "use the simulated clock (env.scheduler.now / self.process.now); "
        "wall time makes runs unreproducible"
    )

    _TIME_ATTRS = {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "localtime",
        "gmtime",
        "clock_gettime",
    }
    _DATETIME_ATTRS = {"now", "today", "utcnow"}

    def __init__(self, ctx: LintContext) -> None:
        super().__init__(ctx)
        self._time_aliases: Set[str] = set()
        self._datetime_mods: Set[str] = set()  # aliases of the datetime module
        self._datetime_classes: Set[str] = set()  # datetime / date class names
        self._banned_names: Dict[str, str] = {}  # from-imported functions

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "time":
                self._time_aliases.add(local)
                self.flag(node, "import of wall-clock module 'time'")
            elif alias.name.split(".")[0] == "datetime":
                self._datetime_mods.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in self._TIME_ATTRS:
                    local = alias.asname or alias.name
                    self._banned_names[local] = f"time.{alias.name}"
                    self.flag(node, f"import of wall-clock time.{alias.name}")
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_classes.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._banned_names:
            self.flag(node, f"call of wall-clock {self._banned_names[func.id]}()")
        elif isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Name)
                and value.id in self._time_aliases
                and func.attr in self._TIME_ATTRS
            ):
                self.flag(node, f"call of wall-clock time.{func.attr}()")
            elif func.attr in self._DATETIME_ATTRS:
                # datetime.now() / date.today() / datetime.datetime.now()
                if isinstance(value, ast.Name) and value.id in self._datetime_classes:
                    self.flag(node, f"call of wall-clock {value.id}.{func.attr}()")
                elif (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                    and isinstance(value.value, ast.Name)
                    and value.value.id in self._datetime_mods
                ):
                    self.flag(
                        node,
                        f"call of wall-clock datetime.{value.attr}.{func.attr}()",
                    )
        self.generic_visit(node)


class StdlibRandomRule(Rule):
    """RL002: stdlib random is only allowed inside sim/rand.py."""

    code = "RL002"
    title = "stdlib random outside sim/rand.py"
    hint = (
        "draw from the environment's seeded SimRandom (env.rng or a "
        ".fork() of it) so runs replay from the seed alone"
    )

    def visit_Import(self, node: ast.Import) -> None:
        if self.ctx.allow_random:
            return
        for alias in node.names:
            if alias.name.split(".")[0] in ("random", "secrets"):
                self.flag(node, f"import of nondeterministic '{alias.name}'")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.ctx.allow_random:
            return
        if node.module and node.module.split(".")[0] in ("random", "secrets"):
            self.flag(node, f"import from nondeterministic '{node.module}'")
        self.generic_visit(node)


class UnorderedIterationRule(Rule):
    """RL003: protocol code must not iterate raw set/frozenset/dict-view
    expressions — iteration order depends on the per-process hash seed."""

    code = "RL003"
    title = "iteration over unordered set expression in protocol code"
    hint = "wrap the expression in sorted(...) to fix the iteration order"

    _SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    _SET_METHODS = {
        "difference",
        "union",
        "intersection",
        "symmetric_difference",
    }
    # Iterating these consumers of a set expression is order-sensitive.
    _ORDERED_CONSUMERS = {"list", "tuple", "enumerate", "iter", "next"}

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if _call_name(node) in ("set", "frozenset"):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SET_METHODS
        ):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return (
                self._is_set_expr(node.left)
                or self._is_set_expr(node.right)
                or self._is_dict_view(node.left)
                or self._is_dict_view(node.right)
            )
        return False

    @staticmethod
    def _is_dict_view(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "items")
            and not node.args
        )

    def _check_iterable(self, iterable: ast.AST) -> None:
        if not self.ctx.is_protocol:
            return
        if self._is_set_expr(iterable):
            self.flag(iterable, "iteration order depends on the set hash seed")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in self._ORDERED_CONSUMERS and node.args:
            self._check_iterable(node.args[0])
        self.generic_visit(node)


class IdentityKeyRule(Rule):
    """RL004: id()/object-hash() must not key or order protocol state."""

    code = "RL004"
    title = "object identity used as protocol key or ordering"
    hint = (
        "key by a stable identifier (address, name, message id) — id() "
        "values are reused after GC and differ across runs"
    )

    _MAP_METHODS = {"get", "setdefault", "pop", "__contains__", "__getitem__"}

    def visit_Call(self, node: ast.Call) -> None:
        if _call_name(node) == "id" and len(node.args) == 1:
            self.flag(node, "id() of an object used in protocol state")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        sl = node.slice
        # py39: plain expressions appear directly as the slice node.
        if isinstance(sl, ast.Index):  # pragma: no cover - py38 compat
            sl = sl.value  # type: ignore[attr-defined]
        if _call_name(sl) == "hash":
            self.flag(node, "hash() of an object used as a subscript key")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            for operand in [node.left, *node.comparators]:
                if _call_name(operand) == "hash":
                    self.flag(node, "hash() of an object used as an ordering")
        self.generic_visit(node)


class MutableDefaultRule(Rule):
    """RL005: no mutable default arguments."""

    code = "RL005"
    title = "mutable default argument"
    hint = "default to None and create the container inside the function"

    _MUTABLE_CALLS = {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
    }

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return _call_name(node) in self._MUTABLE_CALLS

    def _check_args(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable(default):
                self.flag(default, f"mutable default in {node.name}()")
        self.generic_visit(node)

    visit_FunctionDef = _check_args
    visit_AsyncFunctionDef = _check_args


class FloatTimeEqualityRule(Rule):
    """RL006: no float == / != on simulated-time expressions."""

    code = "RL006"
    title = "float equality on simulated time"
    hint = (
        "compare times with <= / >= or an epsilon — float arithmetic on "
        "deadlines makes exact equality seed-dependent"
    )

    _TIME_NAMES = {"now", "_now", "sim_now", "deadline", "sim_time"}

    def _is_time_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in self._TIME_NAMES:
            return True
        if isinstance(node, ast.Name) and node.id in self._TIME_NAMES:
            return True
        if isinstance(node, ast.Call):
            return self._is_time_expr(node.func)
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._is_time_expr(o) for o in operands) and not any(
                isinstance(o, ast.Constant) and o.value is None for o in operands
            ):
                self.flag(node, "== / != on a simulated-time value")
        self.generic_visit(node)


class SchedulerInternalsRule(Rule):
    """RL007: the event heap belongs to sim/scheduler.py alone."""

    code = "RL007"
    title = "scheduler/heap internals accessed outside sim/scheduler.py"
    hint = (
        "go through the Scheduler API (at/after_call/rearm/run_until) — "
        "direct heap surgery breaks the lazy-cancel invariants"
    )

    def visit_Import(self, node: ast.Import) -> None:
        if self.ctx.allow_scheduler_internals:
            return
        for alias in node.names:
            if alias.name == "heapq":
                self.flag(node, "import of heapq outside the scheduler")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.ctx.allow_scheduler_internals and node.module == "heapq":
            self.flag(node, "import from heapq outside the scheduler")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.ctx.allow_scheduler_internals and node.attr.startswith("_"):
            value = node.value
            is_scheduler = (
                isinstance(value, ast.Name) and "scheduler" in value.id.lower()
            ) or (isinstance(value, ast.Attribute) and value.attr == "scheduler")
            if is_scheduler:
                self.flag(node, f"private scheduler attribute .{node.attr}")
        self.generic_visit(node)


class TraceInternalsRule(Rule):
    """RL008: protocol code must use the guarded trace entry points.

    The contract that keeps tracing zero-cost when disabled and
    observation-only when enabled: protocol packages read
    ``network.trace`` (a :class:`~repro.trace.api.TraceSink` or None) and
    call its methods behind a None check.  Importing the trace package's
    internals, constructing spans directly with ``new_span()``, or
    reaching through the sink into its ``.collector`` from protocol code
    bypasses the guard and couples protocols to the trace store.
    """

    code = "RL008"
    title = "trace internals accessed from protocol code"
    hint = (
        "go through the guarded sink: read network.trace, check for None "
        "and call its on_*/local/span methods — never import repro.trace "
        "or touch the collector from protocol packages"
    )

    def visit_Import(self, node: ast.Import) -> None:
        if not self.ctx.is_protocol:
            return
        for alias in node.names:
            if alias.name == "repro.trace" or alias.name.startswith("repro.trace."):
                self.flag(node, f"import of trace internals '{alias.name}'")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.ctx.is_protocol:
            return
        module = node.module or ""
        if module == "repro.trace" or module.startswith("repro.trace."):
            self.flag(node, f"import from trace internals '{module}'")
        elif module == "repro":
            for alias in node.names:
                if alias.name == "trace":
                    self.flag(node, "import of the trace package")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.ctx.is_protocol
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "new_span"
        ):
            self.flag(node, "direct span construction via new_span()")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # <anything>.trace.collector — reaching through the sink into the
        # span store from protocol code.
        if (
            self.ctx.is_protocol
            and node.attr == "collector"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "trace"
        ):
            self.flag(node, "collector access through the trace sink")
        self.generic_visit(node)


class SimImportRule(Rule):
    """RL009: the engine boundary — ``repro.sim`` is an implementation
    detail of the default backend.

    The protocol stack (processes, network, transport, membership,
    broadcast, hierarchy, toolkit, workloads, metrics) programs against
    the engine contract in :mod:`repro.runtime.api`; only ``repro/sim/``
    itself and the backends under ``repro/runtime/`` may import
    ``repro.sim``.  Anything else importing the simulator re-welds the
    stack to one engine and silently breaks the wall-clock backend.
    """

    code = "RL009"
    title = "repro.sim imported outside repro/sim/ and repro/runtime/"
    hint = (
        "program against the engine contract: import SimRandom and the "
        "TimerService/MessageFabric protocols from repro.runtime, and "
        "reach timers via env.scheduler — only runtime backends may "
        "import repro.sim"
    )

    @staticmethod
    def _is_sim_module(name: Optional[str]) -> bool:
        return name is not None and (
            name == "repro.sim" or name.startswith("repro.sim.")
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self.ctx.allow_sim_import:
            return
        for alias in node.names:
            if self._is_sim_module(alias.name):
                self.flag(node, f"import of simulator module '{alias.name}'")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.ctx.allow_sim_import:
            return
        module = node.module or ""
        if self._is_sim_module(module):
            self.flag(node, f"import from simulator module '{module}'")
        elif module == "repro":
            for alias in node.names:
                if alias.name == "sim":
                    self.flag(node, "import of the simulator package")
        self.generic_visit(node)


class SegmentAckRule(Rule):
    """RL010: acks are the transport's private wire protocol.

    The delayed/piggybacked-ack machinery (docs/comms.md) only preserves
    logical message counts if every cumulative ack flows through
    :class:`repro.transport.reliable.ReliableTransport` — a layer above
    constructing and sending its own :class:`SegmentAck` would bypass
    the pending-ack bookkeeping and double-acknowledge channels.
    """

    code = "RL010"
    title = "SegmentAck constructed outside repro/transport/"
    hint = (
        "never hand-build transport acks: send through ReliableTransport "
        "and let its ack policy (delayed, piggybacked, cumulative) "
        "answer segments — only repro/transport/ may construct SegmentAck"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.allow_segment_ack:
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name == "SegmentAck":
                self.flag(node, "transport ack constructed outside the transport")
        self.generic_visit(node)


#: Byte-level modules whose use outside the wire layer bypasses the
#: versioned codec (RL015).  ``socket`` is the raw transport; the rest
#: are serializers — a layer that pickles its own payloads onto the wire
#: forks the frame format and breaks cross-version deployments.
_WIRE_ONLY_MODULES = {"socket", "struct", "pickle", "marshal", "json"}


class WireSerializationRule(Rule):
    """RL015: raw sockets and serialization live under the wire layer.

    The deployment backend promises one versioned frame format
    (docs/deployment.md): every byte on the wire is produced by
    ``repro.net.wire`` and carried by ``repro.runtime.socket_backend``
    or the ``repro.deploy`` control plane.  Protocol code that imports
    ``socket``/``struct``/``pickle``/``marshal``/``json`` is about to
    invent a second wire format — undecodable by peers, invisible to
    the codec's round-trip tests and version gate.
    """

    code = "RL015"
    title = "raw socket/serialization use outside the wire layer"
    hint = (
        "send payload objects through the network and let repro.net.wire "
        "encode them: only repro/net/wire/, repro/runtime/"
        "socket_backend.py and repro/deploy/ may import socket or "
        "byte-level serializers (socket, struct, pickle, marshal, json)"
    )

    def visit_Import(self, node: ast.Import) -> None:
        if not self.ctx.allow_wire_serialization:
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _WIRE_ONLY_MODULES:
                    self.flag(node, f"import of '{alias.name}' outside the wire layer")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.ctx.allow_wire_serialization and node.module:
            root = node.module.split(".")[0]
            if root in _WIRE_ONLY_MODULES:
                self.flag(node, f"import from '{node.module}' outside the wire layer")
        self.generic_visit(node)


#: Callees that consume a container/closure in place: the argument dies
#: inside the call, so nothing outlives the loop iteration.
_SAFE_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "len",
    "sum",
    "any",
    "all",
    "tuple",
    "frozenset",
    "heapify",
    "join",
}

_ALLOC_WHAT = {
    ast.Lambda: "closure (lambda)",
    ast.List: "list literal",
    ast.Dict: "dict literal",
    ast.Set: "set literal",
    ast.ListComp: "list comprehension",
    ast.DictComp: "dict comprehension",
    ast.SetComp: "set comprehension",
}


class HotLoopAllocationRule(Rule):
    """RL011: no *escaping* per-event allocations in the event-core hot loops.

    The zero-allocation discipline (docs/simulator.md, "Allocation
    discipline") is a measured property: the scheduler and
    network steady state must not hand freshly built objects to the rest
    of the system per event, or the free lists are pure overhead and the
    allocation probe in ``tools/perf_report.py`` regresses.

    The rule flags closures (lambda / nested def) and container literals
    or comprehensions inside a ``for``/``while`` loop of a hot-loop file
    (scheduler, network) — but only when the object
    *escapes* the iteration: passed to a non-consuming call (a scheduled
    callback, ``append`` into a surviving container, a wire send), stored
    onto an attribute or attribute-held container, or returned.  Loop-
    local scratch that dies within its iteration, immediately-invoked
    nested defs, and arguments consumed in place (``sorted``/``len``/
    ``heapify``…) stay quiet, as does the amortised compaction idiom of
    swapping a rebuilt list into an existing local slot (``heaps[i] =
    live``).  Genuinely deliberate escapes are opted out per line with
    ``# repro-lint: disable=RL011``.
    """

    code = "RL011"
    title = "per-event allocation escaping an event-core hot loop"
    hint = (
        "hoist the allocation out of the loop or draw from a free list "
        "(self._event_pool / self._arg_pool / self._env_pool); if the "
        "escape is deliberately amortised (compaction, setup), "
        "disable RL011 on that line"
    )

    def _visit_loop(self, node: ast.AST) -> None:
        # One walk over the outermost hot loop covers nested loops too;
        # generic_visit is deliberately skipped to avoid double-flagging.
        if self.ctx.hot_event_loop:
            self._analyze_loop(node)

    visit_For = _visit_loop
    visit_While = _visit_loop

    def _analyze_loop(self, loop: ast.AST) -> None:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(loop):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(loop):
            if isinstance(node, tuple(_ALLOC_WHAT)):
                what = _ALLOC_WHAT[type(node)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                what = "closure (nested def)"
            else:
                continue
            escape = self._escape_of(node, parents, loop)
            if escape:
                self.flag(
                    node,
                    f"{what} escapes per event from a hot event loop ({escape})",
                )

    def _escape_of(
        self,
        node: ast.AST,
        parents: Dict[ast.AST, ast.AST],
        root: ast.AST,
    ) -> Optional[str]:
        """How ``node`` outlives its loop iteration, or None if it dies."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def escapes iff its *name* does (a bare local
            # invocation is fine — the closure dies with the iteration).
            return self._name_escape(node.name, parents, root)
        parent = parents.get(node)
        if isinstance(parent, (ast.List, ast.Set, ast.Dict, ast.Tuple, ast.Starred)):
            # nested inside another literal: shares the outer one's fate
            return self._escape_of(parent, parents, root)
        if isinstance(parent, ast.keyword):
            return self._call_escape(parents.get(parent))
        if isinstance(parent, ast.Call) and node in parent.args:
            return self._call_escape(parent)
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return "returned from the enclosing function"
        if isinstance(parent, ast.Assign):
            return self._assign_escape(parent.targets, parents, root)
        if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            return self._assign_escape([parent.target], parents, root)
        # consumed in place: iteration target, comparison, subscript
        # index, boolean test, unpacking source …
        return None

    def _call_escape(self, call: Optional[ast.AST]) -> Optional[str]:
        if not isinstance(call, ast.Call):
            return None
        name = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
        if name in _SAFE_CONSUMERS:
            return None
        return f"passed to {name or 'a call'}()"

    def _assign_escape(
        self,
        targets: List[ast.expr],
        parents: Dict[ast.AST, ast.AST],
        root: ast.AST,
        seen: Optional[Set[str]] = None,
    ) -> Optional[str]:
        for target in targets:
            if isinstance(target, ast.Attribute):
                return f"stored to attribute .{target.attr}"
            if isinstance(target, ast.Subscript):
                if isinstance(target.value, ast.Attribute):
                    return "stored into an attribute-held container"
                # slot swap inside an existing *local* container: the
                # amortised compaction idiom — non-escaping.
                continue
            if isinstance(target, ast.Name):
                escape = self._name_escape(target.id, parents, root, seen)
                if escape:
                    return escape
        return None

    def _name_escape(
        self,
        name: str,
        parents: Dict[ast.AST, ast.AST],
        root: ast.AST,
        seen: Optional[Set[str]] = None,
    ) -> Optional[str]:
        """Scan the loop for a use of ``name`` that lets it outlive the
        iteration (handed to a non-consuming call, stored onto an
        attribute, returned).  Method access (``x.append``) and slot
        swaps into local containers stay local."""
        seen = seen if seen is not None else set()
        if name in seen:
            return None
        seen.add(name)
        for use in ast.walk(root):
            if not (
                isinstance(use, ast.Name)
                and use.id == name
                and isinstance(use.ctx, ast.Load)
            ):
                continue
            parent = parents.get(use)
            if isinstance(parent, ast.Call):
                if use is parent.func:
                    continue  # local invocation of a nested def
                escape = self._call_escape(parent)
                if escape:
                    return escape
            elif isinstance(parent, ast.keyword):
                escape = self._call_escape(parents.get(parent))
                if escape:
                    return escape
            elif isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return "returned from the enclosing function"
            elif isinstance(parent, (ast.Assign, ast.AnnAssign)):
                escape = self._assign_escape(
                    parent.targets
                    if isinstance(parent, ast.Assign)
                    else [parent.target],
                    parents,
                    root,
                    seen,
                )
                if escape:
                    return escape
            # Attribute access (bound-method aliasing), iteration,
            # comparison … stay local.
        return None


ALL_RULES = (
    WallClockRule,
    StdlibRandomRule,
    UnorderedIterationRule,
    IdentityKeyRule,
    MutableDefaultRule,
    FloatTimeEqualityRule,
    SchedulerInternalsRule,
    TraceInternalsRule,
    SimImportRule,
    SegmentAckRule,
    HotLoopAllocationRule,
    WireSerializationRule,
)

RULES_BY_CODE = {rule.code: rule for rule in ALL_RULES}
