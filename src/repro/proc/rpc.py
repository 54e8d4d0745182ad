"""Request/reply correlation over the datagram network.

ISIS clients interact with services by broadcasting a request and awaiting a
reply; this module provides the point-to-point building block: correlation
ids, per-call timeouts, and a serving side that maps request bodies to reply
values.  Protocol layers use it for control-plane conversations (join
requests, name lookups, state transfer).

:meth:`Rpc.walk` is the stack's one "ask this member, or the next" loop
(joins, leaves, leaf reports, tree fetches, directives, probes, 2PC), and
:func:`redirect` its servers' one way to say "ask my coordinator".

A correlation id is an integer from the run's ``"rpc"`` counter
(``Environment.ids``), with no address prefix: it only has to be unique
among its caller's calls, and a server answers each request as it
comes, never de-duplicating, so nothing keys on it but the caller.  A
call that a crash strands dies with its incarnation: no reply reaches
the dead process, and neither of its callbacks runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type

from repro.net.message import Address
from repro.proc.process import Process, Timer

ReplyFn = Callable[[Any, Address], None]
TimeoutFn = Callable[[], None]
ServeFn = Callable[[Any, Address], Any]


def redirect(coordinator: Optional[Address]) -> Tuple[str, Optional[Address]]:
    """A server's reply when it is not the coordinator: ask ``coordinator``."""
    return ("redirect", coordinator)


@dataclass
class RpcRequest:
    category = "rpc-request"
    request_id: int
    body: Any


@dataclass
class RpcReply:
    category = "rpc-reply"
    request_id: int
    value: Any
    error: Optional[str] = None


class RpcError(RuntimeError):
    """Raised on the serving side to return an error to the caller."""


class Rpc:
    """Attach request/reply support to a process.

    Caller side::

        rpc = Rpc(process)
        rpc.call(server, GetHierarchyInfo("trading"), on_reply=handle,
                 timeout=1.0, on_timeout=retry)

    Server side::

        rpc.serve(GetHierarchyInfo,
                  lambda body, sender: directory_reply(state, epoch))
    """

    def __init__(self, process: Process) -> None:
        self._process = process
        self._ids = process.env.ids["rpc"]
        # request id -> (reply callback, its timeout timer or None); the
        # reply cancels the timer, so no timeout outlives its call.
        self._pending: Dict[int, Tuple[ReplyFn, Optional[Timer]]] = {}
        self._servers: Dict[Type, ServeFn] = {}
        process.on(RpcRequest, self._on_request)
        process.on(RpcReply, self._on_reply)

    # -- caller ----------------------------------------------------------------

    def call(
        self,
        dst: Address,
        body: Any,
        on_reply: ReplyFn,
        timeout: Optional[float] = None,
        on_timeout: Optional[TimeoutFn] = None,
    ) -> int:
        """Send ``body`` to ``dst``; invoke ``on_reply(value, sender)`` on the
        reply, or ``on_timeout()`` if none arrives within ``timeout``."""
        request_id = next(self._ids)
        self._pending[request_id] = (on_reply, None)
        self._process.send(dst, RpcRequest(request_id=request_id, body=body))
        if timeout is not None and request_id in self._pending:
            timer = self._process.set_timer(
                timeout, lambda: self._expire(request_id, on_timeout)
            )
            self._pending[request_id] = (on_reply, timer)
        return request_id

    def walk(
        self,
        contacts: Sequence[Address],
        body: Any,
        answered: Callable[[Any, Address], bool],
        timeout: float,
        stale: Callable[[], bool] = lambda: False,
        exhausted: TimeoutFn = lambda: None,
    ) -> None:
        """Call each contact in turn until ``answered(value, sender)`` takes
        a reply.  A timeout, or a reply it refuses, moves to the next at
        once; a :func:`redirect` puts the member it names first among those
        left, using up no place (one naming no one, or the replier, is a
        refusal).  ``stale()``, asked before every attempt, ends the walk
        silently; past the last contact ``exhausted()`` runs.

        A chain of redirects ends: a server names its acting coordinator,
        the lowest-ranked member of its view that it does not suspect, so
        ranked below the replier; every view ranks members by seniority,
        so each hop reaches a more senior member.
        """
        if stale() or not self._process.alive:
            return
        if not contacts:
            return exhausted()
        rest = tuple(contacts[1:])

        def go_on(left: Tuple[Address, ...] = rest) -> None:
            self.walk(left, body, answered, timeout, stale, exhausted)

        def reply(value: Any, sender: Address) -> None:
            if isinstance(value, tuple) and value[:1] == ("redirect",):
                go_on(rest if value[1] in (None, sender) else value[1:] + rest)
            elif not answered(value, sender):
                go_on()

        self.call(contacts[0], body, reply, timeout, go_on)

    def _expire(self, request_id: int, on_timeout: Optional[TimeoutFn]) -> None:
        if self._pending.pop(request_id, None) is not None and on_timeout:
            on_timeout()

    def _on_reply(self, reply: RpcReply, sender: Address) -> None:
        pending = self._pending.pop(reply.request_id, None)
        if pending is not None:
            on_reply, timer = pending
            if timer is not None:
                timer.cancel()
            on_reply(reply.value, sender)

    # -- server ----------------------------------------------------------------

    def serve(self, body_type: Type, fn: ServeFn) -> None:
        """Answer requests whose body is an instance of ``body_type`` with
        the return value of ``fn(body, sender)``."""
        if body_type in self._servers:
            raise ValueError(f"already serving {body_type.__name__}")
        self._servers[body_type] = fn

    def unserve(self, body_type: Type) -> None:
        self._servers.pop(body_type, None)

    def _on_request(self, request: RpcRequest, sender: Address) -> None:
        fn = self._servers.get(type(request.body))
        if fn is None:
            return  # not served here; the caller's timeout handles it
        try:
            value = fn(request.body, sender)
        except RpcError as exc:
            reply = RpcReply(request_id=request.request_id, value=None, error=str(exc))
        else:
            reply = RpcReply(request_id=request.request_id, value=value)
        self._process.send(sender, reply)
