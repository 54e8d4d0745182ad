"""RL013 — message-kind handler exhaustiveness.

Every protocol layer in the tree dispatches wire messages the same way:
the receiving layer registers a handler per payload *class* with
``process.on(Kind, handler)``, and :meth:`Process._on_envelope` routes
by ``type(payload)``.  A payload class that is constructed and put on
the wire with no registered handler anywhere is a silent protocol hole —
the message lands in ``Process.unhandled`` and the sender retries or
times out (exactly the failure mode the membership/flush and treecast
machinery cannot tolerate).  The dual defect, a handler registered for a
kind nothing ever constructs, is dead dispatch code hiding a renamed or
retired message type.

This pass extracts:

* the **registry**: every ``.on(Kind, ...)`` / ``.replace_handler(Kind,
  ...)`` call whose first argument resolves to a project class;
* **wire sends**: every ``.send`` / ``.multicast`` / ``.send_many`` call
  whose receiver types as a wire endpoint (``Process`` subclass, the
  ``Network``, the ``ReliableTransport``, or the deploy tracker's
  ``ControlEndpoint``) — by the symbol table's attribute/parameter types
  first, by conventional receiver names (``process``, ``node``,
  ``transport``, ``network``, ``endpoint``) second — and
  resolves the payload expression to a class through locals, parameter
  annotations and module constants;
* **constructions**: every resolvable constructor call, anywhere.

Findings:

* a wire-sent kind with no registration anywhere → *unhandled message
  kind*, reported at the send site with the construction chain;
* a registered kind never constructed anywhere → *dead handler*.

Payloads delivered through broadcast/apply callbacks rather than the
``.on`` registry (application payloads inside ``GroupData``) never type
as wire sends — their envelope class is the registered kind.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tools.lint.flow.callgraph import Resolver
from tools.lint.flow.symbols import FunctionInfo, Project, _dotted
from tools.lint.rules import Finding

CODE = "RL013"
HINT_UNHANDLED = (
    "register a handler in the receiving layer (process.on(Kind, "
    "handler)) or stop constructing the kind — an unregistered wire "
    "payload lands in Process.unhandled and stalls the protocol"
)
HINT_DEAD = (
    "remove the dead registration (or the kind it handles) — a handler "
    "for a kind nothing constructs is retired dispatch code"
)

# Receiver names conventionally bound to wire endpoints when the symbol
# table cannot type them.
_WIRE_RECEIVER_NAMES = {
    "process",
    "_process",
    "node",
    "_node",
    "network",
    "_network",
    "transport",
    "_transport",
    # The deploy tracker's UDP control plane registers and dispatches by
    # payload class exactly like Process — its kinds join the census.
    "endpoint",
    "_endpoint",
}
_WIRE_CLASS_NAMES = {"Process", "Network", "ReliableTransport", "ControlEndpoint"}

_SEND_METHODS = {"send", "multicast", "send_many"}


@dataclass
class KindUse:
    """Where a message kind is registered / sent / constructed."""

    registered: List[Tuple[str, int]] = field(default_factory=list)
    sent: List[Tuple[str, int]] = field(default_factory=list)
    constructed: List[Tuple[str, int]] = field(default_factory=list)


def _receiver_is_wire(
    resolver: Resolver, fn: FunctionInfo, receiver: ast.AST
) -> bool:
    """Does this ``.send``-family receiver type as a wire endpoint?"""
    project = resolver.project
    # `self` inside a Process subclass sends on the wire.
    if isinstance(receiver, ast.Name) and receiver.id == "self":
        owner = resolver.owner_class(fn)
        return owner is not None and any(
            project.is_subclass_of(owner, name) for name in _WIRE_CLASS_NAMES
        )
    cls = resolver.value_class(fn, receiver)
    if cls is not None:
        return any(project.is_subclass_of(cls, name) for name in _WIRE_CLASS_NAMES)
    # Untyped: fall back to the naming convention.
    last = None
    if isinstance(receiver, ast.Name):
        last = receiver.id
    elif isinstance(receiver, ast.Attribute):
        last = receiver.attr
    return last in _WIRE_RECEIVER_NAMES


def analyze(project: Project, resolver: Resolver) -> List[Finding]:
    uses: Dict[str, KindUse] = {}

    def use(qname: str) -> KindUse:
        return uses.setdefault(qname, KindUse())

    for fn in project.functions.values():
        mod = fn.module
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # liberal construction census (dead-handler suppression)
            ctor = project.resolve_class(mod, _dotted(func))
            if ctor is not None:
                use(ctor.qname).constructed.append((fn.path, node.lineno))
            if not isinstance(func, ast.Attribute):
                continue
            # handler registry
            if func.attr in ("on", "replace_handler") and len(node.args) >= 2:
                kind = project.resolve_class(mod, _dotted(node.args[0]))
                if kind is not None:
                    use(kind.qname).registered.append((fn.path, node.lineno))
                continue
            # typed wire sends
            if func.attr in _SEND_METHODS:
                if not _receiver_is_wire(resolver, fn, func.value):
                    continue
                payload_expr: Optional[ast.AST] = None
                if func.attr == "send":
                    if len(node.args) == 2:
                        payload_expr = node.args[1]
                    elif len(node.args) == 3:  # Network.send(src, dst, payload)
                        payload_expr = node.args[2]
                elif len(node.args) >= 2:  # multicast/send_many(dsts, payload)
                    payload_expr = node.args[1]
                if payload_expr is None:
                    continue
                kind = resolver.value_class(fn, payload_expr)
                if kind is not None:
                    use(kind.qname).sent.append((fn.path, node.lineno))

    # module-level constants also construct kinds (_HEARTBEAT = Heartbeat())
    for mod in project.modules.values():
        for const_name, dotted in mod.constant_types.items():
            cls = project.resolve_class(mod, dotted)
            if cls is not None:
                use(cls.qname).constructed.append((mod.path, 0))

    findings: List[Finding] = []
    for qname in sorted(uses):
        entry = uses[qname]
        cls = project.classes.get(qname)
        if cls is None:
            continue
        if entry.sent and not entry.registered:
            path, line = entry.sent[0]
            chain = " -> ".join(
                f"sent at {p}:{ln}" for p, ln in entry.sent[:4]
            )
            constructed = (
                f"constructed at {entry.constructed[0][0]}:{entry.constructed[0][1]}, "
                if entry.constructed
                else ""
            )
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"message kind {cls.name} has no registered handler "
                        f"in any layer ({constructed}{chain})"
                    ),
                    hint=HINT_UNHANDLED,
                )
            )
        if entry.registered and not entry.constructed:
            path, line = entry.registered[0]
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    code=CODE,
                    message=(
                        f"dead handler: {cls.name} is registered at "
                        f"{path}:{line} but never constructed anywhere"
                    ),
                    hint=HINT_DEAD,
                )
            )
    return findings
