"""The coordinator-cohort tool (paper §2).

    "A client of such a service broadcasts its request to all members of
    the group, one of whose members is chosen to handle the request.  This
    member, the coordinator, is monitored by the other group members, the
    cohorts, and should the coordinator fail, one of the cohorts is
    selected to take over as the new coordinator.  When the coordinator
    has completed the request, the result is returned to the client, and
    copies of the result are broadcast to the cohorts."

and, of the n-1 cohorts, "there is no practical advantage to having more
than perhaps five cohorts for a request".  So a request involves the
**cohort set** only: the first ``resiliency`` members of the group's
current view in rank order — the coordinator and its r-1 cohorts, the
same rule the group leader applies to ``LeafInfo.contacts``.  The set is
a function of the view: every server recomputes it when a view installs,
so nobody configures it.  A client learns it from one of three places:
- the group leader's directory: a client built from a leaf's entry (a
  :class:`~repro.core.views.CohortSet`) starts with that set, as of no
  view, and sends its first request straight to it;
- a ``GetMembers`` round trip to any member, which is how a client given
  arbitrary contacts (a flat group's) starts;
- any ``CCReply`` to a request that was addressed under another view,
  which carries the current set.
A directory entry is therefore corrected by the first reply, and a
client is never more than one reply behind.

Message accounting (the paper's E1 claim): a write costs r request
messages (client to the set) + 1 reply to the client + r-1 result copies
to the cohorts = **2r messages**, with r members doing work.  A group
that states no resiliency is the paper's *small group* (size ==
resiliency): the set is the whole view and the cost is E1's 2n — which
is exactly why this style "does not scale up very well" without the
bound.  A *read* costs **2**: it has nothing to take over.  Client and
server both declare the reads (``is_read``); the client sends one to the
coordinator alone as a :class:`CCRead`, and whichever set member gets it
runs it and replies, keeping nothing.  A plain :class:`CCRequest` takes
the write path, so an undeclaring client never runs a read twice.

Survivors of a view change keep their relative order and joiners go to
the back, so what is left of a stale set is a prefix of the current one:
takeover, pending writes and retained results all stay inside the set.
A request that reaches a member outside the set all the same (a client
whose whole set has since left the group) is forwarded once: a write to
the set, a read to its coordinator.

**Requests outlive their coordinator.**  A client that has heard nothing
for a request after 1.25 times the p95 of its recent replies
(:data:`HEDGE_SAMPLES`) sends the same request to the *next rank* of the set.
- A read is answered there from the rank's own replica, the same
  totally ordered state.  Each retry of a read, hedged or not, moves one
  rank on.
- A write is still executed by the coordinator only.  Rank 1 already
  holds it pending, so a second copy is evidence that the coordinator is
  silent.  Rank 1 probes it (``FailureDetector.probe``), and if the
  probes go unanswered it suspects the coordinator.  Its own view change
  then makes it coordinator, and the takeover runs the write once.  The
  client's hedge never suspects anyone; only rank 1's failed probe does.
  So a put caught by a crash waits about ``PROBES * interval / 4`` plus
  one flush, not ``suspect_after`` (docs/hierarchy.md, "Requests during
  a coordinator outage").

A process may host several servers (different groups) and several client
stubs; a per-process :class:`_CCDispatch` demultiplexes the shared wire
types.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple
from weakref import WeakValueDictionary

from repro.core.views import CohortSet
from repro.membership.events import ViewEvent
from repro.membership.group import GroupMember
from repro.membership.view import GroupView
from repro.net.message import Address
from repro.proc.process import Process, Timer

Handler = Callable[[Any, Address], Any]

RESULTS_KEPT = 4096
"""How many finished writes a cohort-set member remembers, oldest
evicted first (a read is never remembered: a retry reads again).  A
result is kept to answer a client's retry without executing again, and
a retry comes within ``timeout * max_retries`` seconds of the first
attempt (4 s at the client's defaults), which this covers up to a
thousand writes a second at one group.  A retry that arrives after
eviction re-executes — at-least-once, as after a leaf change."""

HEDGE_SAMPLES = 64
"""A client hedges a request still unanswered after 1.25 times the p95
(the 61st of 64) of its process's latest batch of ``HEDGE_SAMPLES``
first-attempt, unhedged replies, recomputed as each batch fills, and
never before the first batch: Dean & Barroso's "hedge after the p95
expected latency".  Derived, never set, and safe at any value: a hedge
makes at most one more member execute a *read*, and a hedged write only
makes rank 1 probe the coordinator.  A quantile bounds the hedge *rate*
on a heavy-tailed engine and ignores three outliers a batch.  On the
simulator no healthy reply reaches it: the slowest is 1.20 medians, and
``LanLatency``'s ±20% hop jitter keeps a round trip under 1.06 times its
p95.  A hedged get is answered about one delay plus one round trip after
it was sent, a hedged put ``PROBES * interval / 4`` plus one flush after
that, both far inside the detector's ``suspect_after``."""


@dataclass
class CCRequest:
    category = "cc-request"
    group: str
    request_id: str
    payload: Any = None
    client: Address = ""
    # Seq of the view the client's cohort set came from (0 = none yet).
    view_seq: int = 0


@dataclass
class CCRead(CCRequest):
    """A declared read, sent to one set member, which runs it and replies."""


@dataclass
class CCReply:
    category = "cc-reply"
    request_id: str
    result: Any = None
    view_seq: int = 0
    # The current cohort set, sent only when the request was addressed
    # under another view: the correction a stale client needs.
    cohorts: Tuple[Address, ...] = ()


@dataclass
class CCResultNote:
    """The coordinator's result copy broadcast to the cohorts."""

    category = "cc-result"
    group: str
    request_id: str = ""
    result: Any = None
    client: Address = ""


@dataclass
class GetMembers:
    """RPC body: a client asks any member for the group's cohort set; the
    reply is ``(view seq, cohort set, remaining members)``."""

    group: str


class _CCDispatch:
    """Per-process demux for coordinator-cohort wire types."""

    # Keyed by the process's stable address, never id(): CPython reuses
    # object ids after GC, which can silently alias two distinct process
    # objects to one dispatch table.
    _instances: "WeakValueDictionary[Address, _CCDispatch]" = WeakValueDictionary()

    @classmethod
    def for_process(cls, process: Process, rpc=None) -> "_CCDispatch":
        existing = cls._instances.get(process.address)
        if existing is not None and existing.process is process:
            return existing
        dispatch = cls(process, rpc)
        cls._instances[process.address] = dispatch
        return dispatch

    def __init__(self, process: Process, rpc=None) -> None:
        from repro.proc.rpc import Rpc

        self.process = process
        self.servers: Dict[str, "CoordinatorCohortServer"] = {}
        self.outstanding: Dict[str, "CoordinatorCohortClient"] = {}
        # Reply times of this process's first-attempt, unhedged requests
        # since the last full batch, and the hedge delay that batch gave.
        self._batch: List[float] = []
        self.hedge_delay: Optional[float] = None
        process.on(CCRequest, self._on_request)
        process.on(CCRead, self._on_request)
        process.on(CCReply, self._on_reply)
        process.on(CCResultNote, self._on_result_note)
        self.rpc = rpc if rpc is not None else Rpc(process)
        try:
            self.rpc.serve(GetMembers, self._serve_members)
        except ValueError:
            pass

    def note_latency(self, latency: float) -> None:
        batch = self._batch
        batch.append(latency)
        if len(batch) == HEDGE_SAMPLES:
            batch.sort()
            self.hedge_delay = 1.25 * batch[HEDGE_SAMPLES * 19 // 20]  # the p95
            batch.clear()

    def _on_request(self, request: CCRequest, sender: Address) -> None:
        server = self.servers.get(request.group)
        if server is not None:
            server._on_request(request, sender)

    def _on_reply(self, reply: CCReply, sender: Address) -> None:
        client = self.outstanding.get(reply.request_id)
        if client is not None:
            client._on_reply(reply, sender)

    def _on_result_note(self, note: CCResultNote, sender: Address) -> None:
        server = self.servers.get(note.group)
        if server is not None:
            server._on_result_note(note, sender)

    def _serve_members(self, body: GetMembers, sender: Address):
        server = self.servers.get(body.group)
        if server is None or not server.member.is_member:
            return None
        cohorts = server._cohorts
        return (
            server._view_seq,
            cohorts,
            server.member.view.members[len(cohorts):],
        )


class CoordinatorCohortServer:
    """Attach to every member of the serving group.

    ``resiliency`` is the size of the cohort set; ``None`` makes the
    group a small group, whose set is its whole view.  ``is_read(payload)``
    declares the reads: any set member runs one that arrives as a
    :class:`CCRead` and replies.  Writes run on the coordinator only.
    """

    def __init__(
        self,
        member: GroupMember,
        handler: Handler,
        resiliency: Optional[int] = None,
        is_read: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.member = member
        self.handler = handler
        self.resiliency = resiliency
        self.is_read = is_read
        self.requests_executed = 0
        self.takeovers = 0
        # Writes only, held by cohort-set members only: request_id ->
        # request, dropped once a result is known; request_id -> result,
        # bounded.
        self._pending: Dict[str, CCRequest] = {}
        self._results: "OrderedDict[str, Any]" = OrderedDict()
        # The cohort set of the view this member last saw, and the rest
        # of it as seen from here (who gets a result copy).
        self._view_seq = 0
        self._cohorts: Tuple[Address, ...] = ()
        self._fellow_cohorts: Tuple[Address, ...] = ()
        self._dispatch = _CCDispatch.for_process(
            member.runtime.process, rpc=member.runtime.rpc
        )
        self._dispatch.servers[member.group] = self
        member.add_view_listener(self._on_view)
        if member.view is not None:
            self._derive_cohorts(member.view)

    # -- protocol ------------------------------------------------------------------

    def _derive_cohorts(self, view: GroupView) -> None:
        self._view_seq = view.seq
        self._cohorts = view.members[: self.resiliency]
        self._fellow_cohorts = tuple(
            c for c in self._cohorts if c != self.member.me
        )

    def _is_coordinator(self) -> bool:
        return (
            self.member.is_member
            and self.member.acting_coordinator() == self.member.me
        )

    def _on_request(self, request: CCRequest, sender: Address) -> None:
        read = type(request) is CCRead and self.is_read and self.is_read(request.payload)
        if self.member.me not in self._cohorts:
            # Outside the set (or out of the group, knowing the view that
            # removed us): pass a client's request on — a write to the
            # set, a read to its coordinator alone — whose reply corrects
            # the client.  Never pass on a forwarded one.
            if sender == request.client:
                to = self._cohorts[:1] if read else self._cohorts
                self.member.runtime.process.multicast(to, request)
        elif read:
            self._reply(request, self._run(request))
        elif request.request_id in self._results:
            # Retransmitted request already served: coordinator re-replies.
            if self._is_coordinator():
                self._reply(request, self._results[request.request_id])
        elif self._is_coordinator():
            self._execute(request)
        elif request.request_id in self._pending:
            # A second copy is the client's hedge: the coordinator has
            # left it unanswered.  Check the coordinator now; the takeover
            # after the view change still runs the write, so nobody here
            # does.
            self.member.runtime.detector.probe(self.member.acting_coordinator())
        else:
            self._pending[request.request_id] = request

    def _reply(self, request: CCRequest, result: Any) -> None:
        behind = request.view_seq != self._view_seq
        self.member.runtime.process.send(
            request.client,
            CCReply(
                request_id=request.request_id,
                result=result,
                view_seq=self._view_seq,
                cohorts=self._cohorts if behind else (),
            ),
        )

    def _run(self, request: CCRequest) -> Any:
        result = self.handler(request.payload, request.client)
        self.requests_executed += 1
        trace = self.member.runtime.process.env.network.trace
        if trace is not None:
            trace.local(
                "cc-execute", category="toolkit", process=self.member.me,
                group=self.member.group, request_id=request.request_id,
            )
        return result

    def _execute(self, request: CCRequest) -> None:
        """Run a write here, reply, and send the result copy to the
        fellow cohorts, so no takeover runs it again."""
        request_id = request.request_id
        self._pending.pop(request_id, None)
        result = self._run(request)
        self._remember(request_id, result)
        self._reply(request, result)
        if self._fellow_cohorts:
            self.member.runtime.process.multicast(
                self._fellow_cohorts,
                CCResultNote(
                    group=self.member.group,
                    request_id=request_id,
                    result=result,
                    client=request.client,
                ),
            )

    def _remember(self, request_id: str, result: Any) -> None:
        self._results[request_id] = result
        if len(self._results) > RESULTS_KEPT:
            self._results.popitem(last=False)

    def _on_result_note(self, note: CCResultNote, sender: Address) -> None:
        self._remember(note.request_id, note.result)
        self._pending.pop(note.request_id, None)

    def _on_view(self, event: ViewEvent) -> None:
        """Recompute the cohort set; then cohort takeover: if the
        coordinator died holding writes we know about but never published
        results for, the new coordinator re-executes them."""
        self._derive_cohorts(event.view)
        if self.member.me not in self._cohorts:
            # Never in the set and holding nothing, or — ranks only
            # improve — out of the group now.  The rest of the old set is
            # still in the new one and holds the same entries; if none of
            # it is, a retry re-executes.
            self._pending.clear()
            self._results.clear()
            return
        if not self._is_coordinator():
            return
        for request_id in sorted(self._pending):
            self.takeovers += 1
            trace = self.member.runtime.process.env.network.trace
            if trace is not None:
                trace.local(
                    "cc-takeover", category="toolkit", process=self.member.me,
                    group=self.member.group, request_id=request_id,
                )
            self._execute(self._pending[request_id])


@dataclass
class _Call:
    """One outstanding client request."""

    payload: Any
    on_reply: Callable[[Any], None]
    on_failure: Optional[Callable[[], None]]
    retries_left: int
    read: bool
    timer: Optional[Timer] = None
    # When the first attempt went out; None past the hedge delay or once
    # retried, so that only clean replies feed the hedge delay.
    sent_at: Optional[float] = None


class CoordinatorCohortClient:
    """Client stub: cohort-set discovery + request to the set + retry.
    ``is_read`` is the serving group's own (see the module docstring)."""

    _ids = itertools.count(1)

    def __init__(
        self,
        process: Process,
        group: str,
        contact: Address = "",
        contacts: Tuple[Address, ...] = (),
        rpc=None,
        timeout: float = 1.0,
        max_retries: int = 4,
        is_read: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.process = process
        self.group = group
        self.is_read = is_read
        self.contacts = tuple(contacts) if contacts else (contact,)
        if not any(self.contacts):
            raise ValueError("need a contact or contacts")
        self._contact_index = 0
        self.timeout = timeout
        self.max_retries = max_retries
        self._dispatch = _CCDispatch.for_process(process, rpc=rpc)
        self.rpc = self._dispatch.rpc
        # The cohort set as the servers last told it, and its view.  A
        # directory entry is that set already, at no view: the first
        # reply corrects it if the leaf has moved on.
        self._members: Optional[Tuple[Address, ...]] = None
        self._view_seq = 0
        if contacts and isinstance(contacts, CohortSet):
            self._learn(0, self.contacts)
        self.replies_received = 0
        self._calls: Dict[str, _Call] = {}

    def request(
        self,
        payload: Any,
        on_reply: Callable[[Any], None],
        on_failure: Optional[Callable[[], None]] = None,
    ) -> str:
        request_id = f"{self.process.address}/cc{next(self._ids)}"
        read = self.is_read is not None and self.is_read(payload)
        self._calls[request_id] = _Call(
            payload, on_reply, on_failure, self.max_retries, read
        )
        self._dispatch.outstanding[request_id] = self
        self._send(request_id)
        return request_id

    # -- internals ---------------------------------------------------------------

    def _send(self, request_id: str) -> None:
        call = self._calls.get(request_id)
        if call is None:
            return
        if self._members is None:
            self._fetch_members(
                lambda: self._send(request_id),
                lambda: self._maybe_retry(request_id),
            )
            return
        request = self._request(request_id, call)
        if call.read:
            # Each retry to the next rank: the last one may be silent
            # while the set this retry fetched still names it.
            attempt = self.max_retries - call.retries_left
            self.process.send(self._members[attempt % len(self._members)], request)
        else:
            self.process.multicast(self._members, request)
        if call.retries_left == self.max_retries:
            call.sent_at = self.process.env.now
            delay = self._dispatch.hedge_delay
            if delay is not None and delay < self.timeout and len(self._members) > 1:
                # One timer at a time: the hedge, then the retry for the
                # rest of the timeout.
                call.timer = self.process.set_timer(
                    delay, lambda: self._hedge(request_id, delay)
                )
                return
        call.timer = self.process.set_timer(
            self.timeout, lambda: self._maybe_retry(request_id)
        )

    def _request(self, request_id: str, call: _Call) -> CCRequest:
        fields = dict(
            group=self.group,
            request_id=request_id,
            payload=call.payload,
            client=self.process.address,
            view_seq=self._view_seq,
        )
        return CCRead(**fields) if call.read else CCRequest(**fields)

    def _hedge(self, request_id: str, delay: float) -> None:
        """The same request goes to the next rank: a read is answered
        from its replica, a write makes it probe the coordinator."""
        call = self._calls.get(request_id)
        if call is None:
            return
        call.sent_at = None
        if self._members is not None and len(self._members) > 1:
            self.process.send(self._members[1], self._request(request_id, call))
        call.timer = self.process.set_timer(
            self.timeout - delay, lambda: self._maybe_retry(request_id)
        )

    def _maybe_retry(self, request_id: str) -> None:
        call = self._calls.get(request_id)
        if call is None:
            return
        call.sent_at = None
        if call.retries_left <= 0:
            self._finish(request_id)
            if call.on_failure is not None:
                call.on_failure()
            return
        call.retries_left -= 1
        self._members = None  # refresh the set: it may have changed
        self._send(request_id)

    def _finish(self, request_id: str) -> Optional[_Call]:
        self._dispatch.outstanding.pop(request_id, None)
        call = self._calls.pop(request_id, None)
        if call is not None and call.timer is not None:
            call.timer.cancel()
        return call

    def _learn(
        self,
        view_seq: int,
        cohorts: Tuple[Address, ...],
        others: Tuple[Address, ...] = (),
    ) -> None:
        if self._members is not None and view_seq <= self._view_seq:
            return
        self._view_seq = view_seq
        self._members = cohorts
        # Prefer the freshest membership as future contacts.
        known = cohorts + others
        self.contacts = known + tuple(c for c in self.contacts if c not in known)
        # The set is known now, so the next fetch is a retry: the request
        # went unanswered, and the coordinator at contacts[0] is the
        # likeliest reason.  Start at the next rank.
        self._contact_index = 1

    def _fetch_members(self, then, on_give_up) -> None:
        contact = self.contacts[self._contact_index % len(self.contacts)]

        def reply(value, sender) -> None:
            if value:
                self._learn(*value)
                then()
            else:
                self._contact_index += 1
                on_give_up()

        def timed_out() -> None:
            self._contact_index += 1
            on_give_up()

        self.rpc.call(
            contact,
            GetMembers(group=self.group),
            on_reply=reply,
            timeout=self.timeout,
            on_timeout=timed_out,
        )

    def _on_reply(self, reply: CCReply, sender: Address) -> None:
        if reply.cohorts:
            self._learn(reply.view_seq, reply.cohorts)
        call = self._finish(reply.request_id)
        if call is not None:
            if call.sent_at is not None:
                self._dispatch.note_latency(self.process.env.now - call.sent_at)
            self.replies_received += 1
            call.on_reply(reply.result)


def attach_service(
    members: List[GroupMember],
    handler: Handler,
    resiliency: Optional[int] = None,
) -> List[CoordinatorCohortServer]:
    """Attach a coordinator-cohort service to every group member."""
    return [
        CoordinatorCohortServer(m, handler, resiliency=resiliency)
        for m in members
    ]
