"""repro-lint rule visitors.

Each rule is a small :class:`ast.NodeVisitor` subclass with a stable code
(``RL0xx``) and a fix-hint.  Rules are pure syntax: they flag
*patterns* that are overwhelmingly bugs in a deterministic
discrete-event simulation.  There is no per-line suppression — a rule
that misfires is fixed.

The determinism contract the rules enforce (DESIGN.md, the frozen
delivery digests):

* who may import what (:data:`IMPORT_BOUNDARIES`, one table): no
  wall-clock module anywhere (RL001); stdlib ``random`` / ``secrets``
  only in ``sim/rand.py`` (RL002); ``heapq`` only in the scheduler
  (RL007); no ``repro.trace`` from protocol packages (RL008); ``repro.sim``
  only under ``sim/`` and ``runtime/`` (RL009); ``socket`` and the
  byte-level serializers only in the wire layer (RL015);
* protocol decisions must not depend on Python's per-process set/dict
  hash ordering (RL003) or on object identity (RL004);
* float equality on simulated time misfires after arithmetic (RL006);
* transport acks are private to ``repro/transport/`` (RL010);
* the event-core hot loops must not let per-event allocations *escape*
  the iteration (RL011).

docs/devtools.md records, per rule, the hazard it was measured on and
why tier-1 alone would not catch it.  The whole-program passes
(RL012, RL013) live in :mod:`tools.lint.flow` and reuse :class:`Finding`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

# The protocol packages: their iteration order and state decide what is
# sent (RL003, RL012), and they reach the tracer only through the
# guarded sink (RL008).
PROTOCOL_PACKAGES = frozenset(
    {
        "broadcast",
        "clocks",
        "core",
        "failure",
        "membership",
        "net",
        "toolkit",
        "transport",
    }
)


def package_of(path: str) -> Optional[str]:
    """``src/repro/<package>/x.py`` -> ``"<package>"``; else None."""
    parts = path.split("/")
    if "repro" in parts:
        idx = parts.index("repro")
        if idx + 1 < len(parts) - 1:
            return parts[idx + 1]
    return None


def is_protocol(path: str) -> bool:
    return package_of(path) in PROTOCOL_PACKAGES


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Per-file facts the rules condition on."""

    path: str  # repo-relative posix path
    package: Optional[str]  # the repro subpackage, e.g. "membership"

    @classmethod
    def for_path(cls, path: str) -> "LintContext":
        posix = path.replace("\\", "/")
        return cls(posix, package_of(posix))

    @property
    def is_protocol(self) -> bool:
        return self.package in PROTOCOL_PACKAGES


class Rule(ast.NodeVisitor):
    """Base class: collects findings, knows its code and fix-hint."""

    code = "RL000"
    hint = ""

    def __init__(self, ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, message: str, code: str = "", hint: str = "") -> None:
        self.findings.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code or self.code,
                message=message,
                hint=hint or self.hint,
            )
        )


def _call_name(node: ast.AST) -> Optional[str]:
    """``foo(...)`` -> "foo", anything else -> None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


@dataclass(frozen=True)
class ImportBoundary:
    """``modules`` (and their submodules) may be imported only in files
    where ``allowed`` holds; anywhere else the import is a finding."""

    code: str
    modules: Tuple[str, ...]
    allowed: Callable[[LintContext], bool]
    what: str  # "import of <what> '<module>'"
    hint: str


IMPORT_BOUNDARIES = (
    ImportBoundary(
        "RL001",
        ("time", "datetime"),
        lambda ctx: False,
        "wall-clock module",
        "use the simulated clock (env.scheduler.now / self.process.now); "
        "wall time makes runs unreproducible",
    ),
    ImportBoundary(
        "RL002",
        ("random", "secrets"),
        lambda ctx: ctx.path.endswith("sim/rand.py"),
        "nondeterministic",
        "draw from the environment's seeded SimRandom (env.rng or a "
        ".fork() of it) so runs replay from the seed alone",
    ),
    ImportBoundary(
        "RL007",
        ("heapq",),
        lambda ctx: ctx.path.endswith("sim/scheduler.py"),
        "the scheduler's heap module",
        "go through the Scheduler API (at/after_call/rearm/run_until) — "
        "direct heap surgery breaks the lazy-cancel invariants",
    ),
    ImportBoundary(
        "RL008",
        ("repro.trace",),
        lambda ctx: not ctx.is_protocol,
        "trace internals",
        "go through the guarded sink: read network.trace, check for None "
        "and call its on_*/local/span methods — never import repro.trace "
        "from protocol packages",
    ),
    ImportBoundary(
        "RL009",
        ("repro.sim",),
        lambda ctx: ctx.package in ("sim", "runtime"),
        "simulator module",
        "program against the engine contract: import SimRandom and the "
        "TimerService/MessageFabric protocols from repro.runtime, and "
        "reach timers via env.scheduler — only runtime backends may "
        "import repro.sim",
    ),
    ImportBoundary(
        "RL015",
        ("socket", "struct", "pickle", "marshal", "json"),
        lambda ctx: (
            "/net/wire/" in ctx.path
            or ctx.path.endswith("runtime/socket_backend.py")
            or ctx.package == "deploy"
        ),
        "wire-layer module",
        "send payload objects through the network and let repro.net.wire "
        "encode them: only repro/net/wire/, repro/runtime/"
        "socket_backend.py and repro/deploy/ may import socket or "
        "byte-level serializers (socket, struct, pickle, marshal, json)",
    ),
)


def _within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


class ImportBoundaryRule(Rule):
    """RL001/RL002/RL007/RL008/RL009/RL015: one visitor over
    :data:`IMPORT_BOUNDARIES`."""

    def _check(self, node: ast.AST, verb: str, name: str) -> bool:
        hit = False
        for row in IMPORT_BOUNDARIES:
            if any(_within(name, m) for m in row.modules) and not row.allowed(self.ctx):
                self.flag(node, f"{verb} {row.what} '{name}'", row.code, row.hint)
                hit = True
        return hit

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, "import of", alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if not self._check(node, "import from", module):
            # ``from repro import sim`` names the package in the alias
            for alias in node.names:
                self._check(node, "import of", f"{module}.{alias.name}")


def is_dict_view(node: ast.AST) -> bool:
    """Bare ``d.keys()`` / ``d.items()`` — insertion-ordered on their own,
    hash-ordered once combined in a set operation."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "items")
        and not node.args
    )


def is_set_expr(node: ast.AST) -> bool:
    """A raw set/frozenset expression: iterating it is hash-ordered."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if _call_name(node) in ("set", "frozenset"):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("difference", "union", "intersection", "symmetric_difference")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return any(
            is_set_expr(side) or is_dict_view(side) for side in (node.left, node.right)
        )
    return False


class UnorderedIterationRule(Rule):
    """RL003: protocol code must not iterate raw set/frozenset/dict-view
    expressions — iteration order depends on the per-process hash seed."""

    code = "RL003"
    hint = "wrap the expression in sorted(...) to fix the iteration order"

    # Iterating these consumers of a set expression is order-sensitive.
    _ORDERED_CONSUMERS = {"list", "tuple", "enumerate", "iter", "next"}

    def _check_iterable(self, iterable: ast.AST) -> None:
        if not self.ctx.is_protocol:
            return
        if is_set_expr(iterable):
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
    hint = (
        "key by a stable identifier (address, name, message id) — id() "
        "values are reused after GC and differ across runs"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if _call_name(node) == "id" and len(node.args) == 1:
            self.flag(node, "id() of an object used in protocol state")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _call_name(node.slice) == "hash":
            self.flag(node, "hash() of an object used as a subscript key")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
            for operand in [node.left, *node.comparators]:
                if _call_name(operand) == "hash":
                    self.flag(node, "hash() of an object used as an ordering")
        self.generic_visit(node)


class FloatTimeEqualityRule(Rule):
    """RL006: no float == / != on simulated-time expressions."""

    code = "RL006"
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
    hint = (
        "go through the guarded sink: read network.trace, check for None "
        "and call its on_*/local/span methods — never import repro.trace "
        "or touch the collector from protocol packages"
    )

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


class SegmentAckRule(Rule):
    """RL010: acks are the transport's private wire protocol.

    The delayed/piggybacked-ack machinery (docs/comms.md) only preserves
    logical message counts if every cumulative ack flows through
    :class:`repro.transport.reliable.ReliableTransport` — a layer above
    constructing and sending its own :class:`SegmentAck` would bypass
    the pending-ack bookkeeping and double-acknowledge channels.
    """

    code = "RL010"
    hint = (
        "never hand-build transport acks: send through ReliableTransport "
        "and let its ack policy (delayed, piggybacked, cumulative) "
        "answer segments — only repro/transport/ may construct SegmentAck"
    )

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.package != "transport":
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name == "SegmentAck":
                self.flag(node, "transport ack constructed outside the transport")
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


# RL011 scope: the event-core files whose loops run once per event.
HOT_LOOP_FILES = ("sim/scheduler.py", "net/network.py")


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
    live``).
    """

    code = "RL011"
    hint = (
        "hoist the allocation out of the loop or draw from a free list "
        "(self._event_pool / self._arg_pool / self._env_pool)"
    )

    def _visit_loop(self, node: ast.AST) -> None:
        # One walk over the outermost hot loop covers nested loops too;
        # generic_visit is deliberately skipped to avoid double-flagging.
        if self.ctx.path.endswith(HOT_LOOP_FILES):
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
    ImportBoundaryRule,
    UnorderedIterationRule,
    IdentityKeyRule,
    FloatTimeEqualityRule,
    TraceInternalsRule,
    SegmentAckRule,
    HotLoopAllocationRule,
)
