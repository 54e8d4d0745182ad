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
(:data:`HEDGE_SAMPLES`) sends the same request to the *next rank* of the
set.  A read is answered there from the rank's own replica (each retry
of a read moves one rank on).  A write still runs on the coordinator
only: rank 1 already holds it pending, so the second copy makes it probe
the coordinator, whose failed probes lead to the view change and the
takeover (docs/hierarchy.md, "Requests during a coordinator outage").

**A request names itself once.**  Its id is an integer from the run's
``"cc"`` counter (``Environment.ids``), with no address prefix, so a
server holds a write under its client and its id.  The client is the
envelope's sender: ``CCRequest.client`` stays empty on the client's own
copies, and only a member outside the set that passes a request on
names the client there.  The result copy to the cohorts names the client too.

**A result is kept until its client has the answer** (Birrell &
Nelson's at-most-once RPC).  ``CCRequest.lag`` is a write's id minus the
oldest id its client's process still waits on: every id of the client
below ``request_id - lag`` is finished.  Per client, a set member keeps
that *floor* and the writes at or above it, pending or answered, and
drops everything below it; a write below the floor is a late copy that
nobody runs, answers or holds.  A call a client's crash strands dies
with its incarnation, callbacks and all: the successor's dispatch starts
empty, so no dead call pins its floor.  The specs this keeps, and why
the floor is safe, are in docs/protocols.md ("The coordinator–cohort
tool").

:class:`CohortCore` decides all of it; :class:`CoordinatorCohortServer`
is its port on a process, where one :class:`_CCDispatch` demultiplexes
the wire types for every server and client stub.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from weakref import WeakValueDictionary

from repro.core.views import CohortSet
from repro.membership.events import ViewEvent
from repro.membership.group import GroupMember
from repro.membership.view import GroupView
from repro.net.message import Address
from repro.proc.process import Process
from repro.runtime.api import TimerHandle

Handler = Callable[[Any, Address], Any]

CLIENTS_KEPT = 4096
"""How many clients a cohort-set member keeps a record for, least
recently heard evicted first.  A record holds only the client's
unfinished writes, pending or answered, so the table is bounded by the
clients a group serves at once, not by the writes it has run.  Only a
retry whose client's record was evicted (4,096 other clients heard
since) runs a write twice."""

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


class _ClientRecord:
    """A client's record at a set member: every id below ``floor`` is
    finished at the client.  ``results`` holds the results of its writes
    at or above the floor, and ``pending`` the writes among them whose
    result this member has not seen yet (the ones a takeover runs)."""

    __slots__ = ("floor", "results", "pending")

    def __init__(self) -> None:
        self.floor = 0
        self.results: Dict[int, Any] = {}
        # None while nothing is pending, as at most records most of the
        # time: a dict emptied of its last entry keeps its table.
        self.pending: Optional[Dict[int, CCRequest]] = None


@dataclass
class CCRequest:
    category = "cc-request"
    group: str
    request_id: int
    payload: Any = None
    # Seq of the view the client's cohort set came from (0 = none yet).
    view_seq: int = 0
    # This id minus the oldest one the client's process still waits on:
    # every id of the client below ``request_id - lag`` is finished.
    # Always 0 on a CCRead.
    lag: int = 0
    # The client, when it is not the sender: set only on the copy a
    # member outside the cohort set passes on.
    client: Address = ""


@dataclass
class CCRead(CCRequest):
    """A declared read, sent to one set member, which runs it and replies."""


@dataclass
class CCReply:
    category = "cc-reply"
    request_id: int
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
    request_id: int = 0
    result: Any = None
    client: Address = ""


@dataclass
class GetMembers:
    """RPC body: a client asks any member for the group's cohort set; the
    reply is ``(view seq, cohort set, remaining members)``."""

    group: str


def lag(request_id: int, outstanding: Iterable[int]) -> int:
    """A write's ``CCRequest.lag``: its id minus the oldest id its process
    still waits on.  ``outstanding`` is in id order, as one counter numbers
    every request and a finished one leaves it."""
    return request_id - next(iter(outstanding), request_id)


class CohortCore:
    """A group member's side of the tool, as one sans-IO core: the client
    records, the cohort set of the last view, and the rules that run,
    answer, hold, forward, drop as stale or take over each request.  It
    performs nothing itself.  A subclass supplies the port: ``_send`` and
    ``_multicast``, ``_run`` (the handler, with its trace spans),
    ``_probe`` (check the acting coordinator) and the ``_is_coordinator``
    query.  A process runs :class:`CoordinatorCohortServer`;
    ``tests/test_cc_enumerated.py`` drives cores through a fake port."""

    def __init__(self, me: Address, group: str, resiliency: Optional[int] = None,
                 is_read: Optional[Callable[[Any], bool]] = None) -> None:
        self.me = me
        self.group = group
        self.resiliency = resiliency
        self.is_read = is_read
        self.requests_executed = 0
        self.takeovers = 0
        # Writes only, held by cohort-set members only: client -> its
        # unfinished writes, least recently heard first.
        self._clients: "OrderedDict[Address, _ClientRecord]" = OrderedDict()
        # The cohort set of the view this member last saw, and the rest
        # of it as seen from here (who gets a result copy).
        self.view_seq = 0
        self.cohorts: Tuple[Address, ...] = ()
        self._fellows: Tuple[Address, ...] = ()

    def records(self) -> Dict[Address, Tuple[int, Dict[int, Any], Dict[int, CCRequest]]]:
        """Each client's record, as a copy ``(floor, results, pending)``."""
        return {
            client: (record.floor, dict(record.results), dict(record.pending or {}))
            for client, record in self._clients.items()
        }

    def on_request(self, request: CCRequest, sender: Address) -> None:
        client = request.client or sender
        read = type(request) is CCRead and self.is_read and self.is_read(request.payload)
        if self.me not in self.cohorts:
            # Outside the set (or out of the group, knowing the view that
            # removed us): pass a client's request on — a write to the
            # set, a read to its coordinator alone — whose reply corrects
            # the client.  Never pass on a forwarded one.
            if not request.client:
                to = self.cohorts[:1] if read else self.cohorts
                self._multicast(to, replace(request, client=sender))
            return
        if read:
            # Run it and reply; a read keeps nothing.
            result = self._run(request, client, False)
            self.requests_executed += 1
            self._send(client, CCReply(
                request.request_id, result, self.view_seq,
                () if request.view_seq == self.view_seq else self.cohorts,
            ))
            return
        request_id = request.request_id
        record = self._record(client)
        floor = request_id - request.lag
        # A CCRead on the write path (a read this member does not
        # declare) says nothing of the client's writes.
        if floor > record.floor and type(request) is CCRequest:
            # Every older write is finished at the client: a pending one
            # was answered by a coordinator whose result copy never came.
            record.floor = floor
            for held in (record.results, record.pending or {}):
                for stale in [i for i in held if i < floor]:
                    del held[stale]
            record.pending = record.pending or None
        if request_id < record.floor:
            return  # a late copy of a write its client has finished
        if request_id in record.results:
            # Retransmitted request already served: coordinator re-replies.
            if self._is_coordinator():
                self._send(client, CCReply(
                    request_id, record.results[request_id], self.view_seq,
                    () if request.view_seq == self.view_seq else self.cohorts,
                ))
        elif self._is_coordinator():
            self._execute(request, client, record)
        elif record.pending and request_id in record.pending:
            # A second copy is the client's hedge: the coordinator has
            # left it unanswered.  Check the coordinator now; the takeover
            # after the view change still runs the write, so nobody here
            # does.
            self._probe()
        else:
            if record.pending is None:
                record.pending = {}
            record.pending[request_id] = request

    def on_result_note(self, note: CCResultNote) -> None:
        self._settle(self._record(note.client), note.request_id, note.result)

    def on_view(self, view: GroupView) -> None:
        """Recompute the cohort set; then cohort takeover: if the
        coordinator died holding writes we know about but never published
        results for, the new coordinator runs them, in sorted
        ``(client, id)`` order."""
        self.view_seq = view.seq
        self.cohorts = view.members[: self.resiliency]
        self._fellows = tuple(c for c in self.cohorts if c != self.me)
        if self.me not in self.cohorts:
            # Never in the set and holding nothing, or — ranks only
            # improve — out of the group now.  The rest of the old set is
            # still in the new one and holds the same entries; if none of
            # it is, a retry re-executes.
            self._clients.clear()
            return
        if not self._is_coordinator():
            return
        clients = self._clients
        for client, request_id in sorted(
            (c, i) for c, record in clients.items() for i in record.pending or ()
        ):
            self.takeovers += 1
            record = clients[client]
            self._execute(record.pending[request_id], client, record, takeover=True)

    def _execute(self, request: CCRequest, client: Address,
                 record: _ClientRecord, takeover: bool = False) -> None:
        """Run a write here and reply.  Its result is kept, and copied to
        the fellow cohorts so that no takeover runs it again.  A reply to
        a request addressed under another view carries the current set."""
        result = self._run(request, client, takeover)
        self.requests_executed += 1
        request_id = request.request_id
        self._settle(record, request_id, result)
        self._send(client, CCReply(
            request_id, result, self.view_seq,
            () if request.view_seq == self.view_seq else self.cohorts,
        ))
        if self._fellows:
            self._multicast(self._fellows, CCResultNote(self.group, request_id, result, client))

    def _settle(self, record: _ClientRecord, request_id: int, result: Any) -> None:
        """The write has a result: hold that instead of the request."""
        if record.pending is not None:
            record.pending.pop(request_id, None)
            record.pending = record.pending or None
        if request_id >= record.floor:
            record.results[request_id] = result

    def _record(self, client: Address) -> _ClientRecord:
        """The client's record, now the most recently heard."""
        records = self._clients
        record = records.get(client)
        if record is None:
            record = records[client] = _ClientRecord()
            if len(records) > CLIENTS_KEPT:
                records.popitem(last=False)
        else:
            records.move_to_end(client)
        return record


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
        self.outstanding: Dict[int, "CoordinatorCohortClient"] = {}
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
            server.on_request(request, sender)

    def _on_reply(self, reply: CCReply, sender: Address) -> None:
        client = self.outstanding.get(reply.request_id)
        if client is not None:
            client._on_reply(reply, sender)

    def _on_result_note(self, note: CCResultNote, sender: Address) -> None:
        server = self.servers.get(note.group)
        if server is not None:
            server.on_result_note(note)

    def _serve_members(self, body: GetMembers, sender: Address):
        server = self.servers.get(body.group)
        if server is None or not server.member.is_member:
            return None
        cohorts = server.cohorts
        return (server.view_seq, cohorts, server.member.view.members[len(cohorts):])


class CoordinatorCohortServer(CohortCore):
    """Attach to every member of the serving group: the port of a
    :class:`CohortCore`, which decides everything.

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
        super().__init__(member.me, member.group, resiliency, is_read)
        self.member = member
        self.handler = handler
        self._dispatch = _CCDispatch.for_process(
            member.runtime.process, rpc=member.runtime.rpc
        )
        self._dispatch.servers[member.group] = self
        member.add_view_listener(self._on_view_event)
        if member.view is not None:
            self.on_view(member.view)

    def _on_view_event(self, event: ViewEvent) -> None:
        self.on_view(event.view)

    def _send(self, dst: Address, payload: Any) -> None:
        self.member.runtime.process.send(dst, payload)

    def _multicast(self, dsts: Tuple[Address, ...], payload: Any) -> None:
        self.member.runtime.process.multicast(dsts, payload)

    def _run(self, request: CCRequest, client: Address, takeover: bool) -> Any:
        trace = self.member.runtime.process.env.network.trace
        if trace is None:
            return self.handler(request.payload, client)
        span = dict(
            category="toolkit", process=self.me, group=self.group,
            client=client, request_id=request.request_id,
        )
        if takeover:
            trace.local("cc-takeover", **span)
        result = self.handler(request.payload, client)
        trace.local("cc-execute", **span)
        return result

    def _probe(self) -> None:
        self.member.runtime.detector.probe(self.member.acting_coordinator())

    def _is_coordinator(self) -> bool:
        return self.member.is_coordinator


def report_failure(
    on_reply: Callable[[Any], None],
    on_failure: Optional[Callable[[], None]],
    answer: Optional[Callable[[Any], Any]],
) -> None:
    """A request given up on: ``on_reply(answer(None))`` for a call with
    an ``answer``, else ``on_failure()`` if there is one."""
    if answer is not None:
        on_reply(answer(None))
    elif on_failure is not None:
        on_failure()


@dataclass
class _Call:
    """One outstanding client request, and all that its retry, hedge and
    re-route need: no closure is built per request."""

    payload: Any
    on_reply: Callable[[Any], None]
    on_failure: Optional[Callable[[], None]]
    answer: Optional[Callable[[Any], Any]]
    # The key a KeyRoutedClient placed the call by, which it re-routes
    # by if the leaf's stub gives up; None for a call that does not.
    key: Optional[str]
    retries_left: int
    read: bool
    # The engine one-shot armed for the call, its hedge or else its
    # retry (one at a time), and the delay the hedge was armed with.
    # A fire clears it first: a fired handle is recycled.
    handle: Optional[TimerHandle] = None
    hedge_delay: float = 0.0
    # When the first attempt went out; None past the hedge delay or once
    # retried, so that only clean replies feed the hedge delay.
    sent_at: Optional[float] = None


class CoordinatorCohortClient:
    """Client stub: cohort-set discovery + request to the set + retry.
    ``is_read`` is the serving group's own (see the module docstring).

    A call's hedge and retry timer is one engine one-shot, armed with a
    bound method and the request id.  A crash cancels none of them: a fire
    on a dead process does nothing, so the calls a crash strands run no
    retry, hedge or callback and send nothing."""

    def __init__(
        self,
        process: Process,
        group: str,
        contacts: Tuple[Address, ...],
        rpc=None,
        timeout: float = 1.0,
        max_retries: int = 4,
        is_read: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        self.process = process
        self._timers = process.env.scheduler
        self.group = group
        self.is_read = is_read
        self._ids = process.env.ids["cc"]
        self.contacts = tuple(contacts)
        if not any(self.contacts):
            raise ValueError("need contacts")
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
        if isinstance(contacts, CohortSet):
            self._learn(0, self.contacts)
        self._calls: Dict[int, _Call] = {}
        # The KeyRoutedClient this stub is a leaf's stub of, if any: a
        # call given up on goes back to it to be re-routed.
        self.owner = None

    def request(
        self,
        payload: Any,
        on_reply: Callable[[Any], None],
        on_failure: Optional[Callable[[], None]] = None,
        answer: Optional[Callable[[Any], Any]] = None,
        key: Optional[str] = None,
    ) -> int:
        """Send ``payload`` to the cohort set: ``on_reply(result)`` once
        it is answered, ``on_failure()`` once every retry went unanswered.
        With an ``answer``, ``on_reply`` gets ``answer(result)`` instead,
        and ``answer(None)`` on failure.  ``key`` is the key a
        :class:`~repro.toolkit.hierarchical_service.KeyRoutedClient`
        re-routes the call by if this stub gives up on it."""
        request_id = next(self._ids)
        read = self.is_read is not None and self.is_read(payload)
        call = self._calls[request_id] = _Call(
            payload, on_reply, on_failure, answer, key, self.max_retries, read
        )
        self._dispatch.outstanding[request_id] = self
        self._send(request_id, call)
        return request_id

    # -- internals ---------------------------------------------------------------

    def _send(self, request_id: int, call: _Call) -> None:
        members = self._members
        if members is None:

            def then() -> None:
                if request_id in self._calls:  # not answered meanwhile
                    self._send(request_id, call)

            self._fetch_members(then, lambda: self._maybe_retry(request_id))
            return
        process = self.process
        if call.read:
            # Each retry to the next rank: the last one may be silent
            # while the set this retry fetched still names it.
            attempt = self.max_retries - call.retries_left
            process.send(
                members[attempt % len(members)],
                CCRead(self.group, request_id, call.payload, self._view_seq),
            )
        else:
            process.multicast(members, self._request(request_id, call))
        if not process.alive:
            return  # a dead process arms nothing
        timers = self._timers
        if call.retries_left == self.max_retries:
            call.sent_at = timers.now
            delay = self._dispatch.hedge_delay
            if delay is not None and delay < self.timeout and len(members) > 1:
                # One timer at a time: the hedge, then the retry for the
                # rest of the timeout.
                call.hedge_delay = delay
                call.handle = timers.after_call_once(delay, self._hedge, request_id)
                return
        call.handle = timers.after_call_once(self.timeout, self._maybe_retry, request_id)

    def _request(self, request_id: int, call: _Call) -> CCRequest:
        if call.read:
            return CCRead(self.group, request_id, call.payload, self._view_seq)
        return CCRequest(
            self.group, request_id, call.payload, self._view_seq,
            lag(request_id, self._dispatch.outstanding),
        )

    def _hedge(self, request_id: int) -> None:
        """The same request goes to the next rank: a read is answered
        from its replica, a write makes it probe the coordinator."""
        call = self._calls[request_id]
        call.handle = None
        if not self.process.alive:
            return
        call.sent_at = None
        members = self._members
        if members is not None and len(members) > 1:
            self.process.send(members[1], self._request(request_id, call))
        call.handle = self._timers.after_call_once(
            self.timeout - call.hedge_delay, self._maybe_retry, request_id
        )

    def _maybe_retry(self, request_id: int) -> None:
        call = self._calls.get(request_id)
        if call is None:
            return  # answered while its cohort set was being fetched
        call.handle = None
        if not self.process.alive:
            return
        call.sent_at = None
        if call.retries_left <= 0:
            self._give_up(request_id)
            return
        call.retries_left -= 1
        self._members = None  # refresh the set: it may have changed
        self._send(request_id, call)

    def _give_up(self, request_id: int) -> None:
        self._dispatch.outstanding.pop(request_id, None)
        call = self._calls.pop(request_id)
        if self.owner is not None:
            self.owner.gave_up(self, call)
        else:
            report_failure(call.on_reply, call.on_failure, call.answer)

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
        request_id = reply.request_id
        self._dispatch.outstanding.pop(request_id, None)
        call = self._calls.pop(request_id, None)
        if call is None:
            return
        if call.handle is not None:
            call.handle.cancel()
        if call.sent_at is not None:
            self._dispatch.note_latency(self._timers.now - call.sent_at)
        if call.answer is None:
            call.on_reply(reply.result)
        else:
            call.on_reply(call.answer(reply.result))


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
