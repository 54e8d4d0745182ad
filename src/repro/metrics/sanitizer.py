"""Virtual-synchrony sanitizer: runtime assertion hooks for group protocols.

The static rules in ``tools/lint`` catch nondeterminism *patterns*; this
module is the dynamic complement.  A :class:`VirtualSynchronySanitizer`
attaches to live :class:`~repro.membership.group.GroupMember` objects and
checks, at delivery time and at view changes, the invariants the whole
reproduction rests on (DESIGN.md; paper §2):

``VS001`` **view agreement** — every member that installs view ``(g, s)``
installs the same ordered membership list.

``VS002`` **gap-free per-sender delivery** — within one view, each
ordering class delivers one sender's messages in increasing
``sender_seq`` order, and by the time the view closes (or the run
drains) every ``sender_seq`` from 1 to the sender's highest delivered
number has been delivered: no reordering, no holes.  (The per-sender
counter is shared across orderings, so *consecutiveness* is only
required of the union, not of any single ordering's stream.)

``VS003`` **causal delivery** — a CAUSAL message is only delivered once
every causal predecessor recorded in its vector stamp has been
delivered (the Birman–Schiper–Stephenson condition).

``VS004`` **virtual synchrony** — members surviving from view ``s`` to
view ``s+1`` delivered exactly the same set of view-``s`` messages
before installing ``s+1``.

``VS005`` **delivery hygiene** — no delivery into a view the member has
already left behind (a closed view).

``VS006`` **total-order agreement** — any two members deliver their
common TOTAL messages of one view in the same relative order.

Hooks are opt-in — tests install them; production scenarios pay nothing.
In ``strict`` mode (the default) the first violation raises
:class:`VirtualSynchronyViolation` at the offending delivery, so the
failing stack trace points into the guilty protocol path; with
``strict=False`` violations accumulate for a final :meth:`check`.

Usage::

    sanitizer = VirtualSynchronySanitizer()
    sanitizer.attach_all(members)          # or attach(member) one by one
    ...run the scenario...
    sanitizer.check(at_quiescence=True)    # cross-member comparisons
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.clocks.vector import VectorClock
from repro.membership.events import CAUSAL, TOTAL, MessageId, ViewEvent

Address = str
_ViewKey = Tuple[str, int]  # (group, view seq)


class VirtualSynchronyViolation(AssertionError):
    """A group-protocol invariant was broken at runtime."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class Violation:
    code: str
    group: str
    member: Address
    detail: str
    # Causal-trace context of the offending event when the run is traced
    # (repro.trace): the delivery/span in whose scope the violation was
    # detected, so ``check()`` output points at the causal history.
    trace_id: Optional[int] = None
    span_id: Optional[int] = None


@dataclass
class _MemberViewState:
    """What one member did inside one (group, view_seq)."""

    # ``full``: we watched this view from its very first delivery (the
    # member installed it while attached, or we seeded exact state at
    # attach time) — only then are absolute checks sound.
    full: bool
    delivered: Set[MessageId] = field(default_factory=set)
    # (sender, ordering) -> highest sender_seq delivered in that stream.
    watermarks: Dict[Tuple[Address, str], int] = field(default_factory=dict)
    causal_clock: VectorClock = field(default_factory=VectorClock.zero)
    total_order: List[MessageId] = field(default_factory=list)
    closed: bool = False


class VirtualSynchronySanitizer:
    """Opt-in runtime checker for view agreement, gap-free and causal
    delivery, and the virtual-synchrony delivery-set guarantee."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[Violation] = []
        self.deliveries_checked = 0
        self.views_checked = 0
        # (group, seq) -> membership list agreed so far (first install wins).
        self._views: Dict[_ViewKey, Tuple[Address, ...]] = {}
        # (group, seq) -> member address -> per-view state.
        self._state: Dict[_ViewKey, Dict[Address, _MemberViewState]] = {}
        # member address -> (group -> seqs installed-or-seeded while attached)
        self._observed: Dict[Address, Dict[str, Set[int]]] = {}
        self._attached: List[Any] = []
        self._originals: List[Tuple[Any, Any]] = []
        # The network of the first attached member, for reading the trace
        # sink (None until attach, or when members carry no runtime).
        self._network: Optional[Any] = None

    # ------------------------------------------------------------ attachment

    def attach(self, member: Any) -> None:
        """Hook one GroupMember.  Idempotent per member object."""
        if any(m is member for m in self._attached):
            return
        self._attached.append(member)
        if self._network is None:
            runtime = getattr(member, "runtime", None)
            if runtime is not None:
                self._network = runtime.process.env.network
        original = member._deliver
        self._originals.append((member, original))

        def wrapped(data: Any) -> None:
            before = member.deliveries
            original(data)
            if member.deliveries != before:
                self.observe_delivery(member.me, data)

        member._deliver = wrapped
        member.add_view_listener(
            lambda event, _m=member: self.observe_view(_m.me, event)
        )
        if member.view is not None:
            self._seed(member)

    def attach_all(self, members: Iterable[Any]) -> None:
        for member in members:
            self.attach(member)

    def detach_all(self) -> None:
        """Restore the wrapped delivery paths (view listeners stay but
        only record; a detached run adds no further deliveries)."""
        for member, original in self._originals:
            member._deliver = original
        self._originals.clear()
        self._attached.clear()

    def _seed(self, member: Any) -> None:
        """Adopt a mid-view member: copy its exact per-view protocol state
        so the current view still counts as fully observed."""
        view = member.view
        key = (view.group, view.seq)
        self._note_view_membership(member.me, key, tuple(view.members))
        state = _MemberViewState(full=True)
        # Seed the delivered set exactly; per-stream watermarks stay
        # unknown (we cannot recover which ordering a past message used),
        # so the increasing-order check starts at the next delivery.
        delivered = member._delivered.get(view.seq)
        if delivered is not None:
            state.delivered.update(delivered)
        causal_engine = member._engines.get(CAUSAL)
        if causal_engine is not None:
            state.causal_clock = causal_engine._buffer.delivered_clock
        self._state.setdefault(key, {})[member.me] = state
        self._observed.setdefault(member.me, {}).setdefault(key[0], set()).add(
            key[1]
        )

    # ------------------------------------------------------------- recording

    def _report(self, code: str, group: str, member: Address, detail: str) -> None:
        trace_id = span_id = None
        network = self._network
        if network is not None and network.trace is not None:
            ids = network.trace.context_ids()
            if ids is not None:
                trace_id, span_id = ids
        self.violations.append(
            Violation(code, group, member, detail, trace_id, span_id)
        )
        if self.strict:
            where = f" (trace {trace_id} span {span_id})" if trace_id else ""
            raise VirtualSynchronyViolation(
                code, f"group={group} member={member}: {detail}{where}"
            )

    def observe_delivery(self, member: Address, data: Any) -> None:
        """Record (and check) one delivery of a GroupData at one member."""
        self.deliveries_checked += 1
        key = (data.group, data.view_seq)
        per_member = self._state.setdefault(key, {})
        state = per_member.get(member)
        if state is None:
            # A view we never saw this member install: only relative
            # checks are sound from here on.
            state = _MemberViewState(full=False)
            per_member[member] = state
        if state.closed:
            self._report(
                "VS005",
                data.group,
                member,
                f"delivery of {data.message_id} into closed view seq "
                f"{data.view_seq}",
            )
        if data.message_id in state.delivered:
            self._report(
                "VS005",
                data.group,
                member,
                f"duplicate delivery of {data.message_id} in view seq "
                f"{data.view_seq}",
            )
        sender, seq = data.message_id
        stream = (sender, data.ordering)
        last = state.watermarks.get(stream)
        if last is not None and seq <= last:
            self._report(
                "VS002",
                data.group,
                member,
                f"per-sender reordering: delivered "
                f"{('fifo', 'causal', 'total')[data.ordering]} "
                f"{sender}#{seq} after #{last} in view seq {data.view_seq}",
            )
        state.watermarks[stream] = seq
        state.delivered.add(data.message_id)
        if data.ordering == CAUSAL and state.full:
            self._check_causal(member, data, state)
        if data.ordering == TOTAL:
            state.total_order.append(data.message_id)

    def _check_causal(self, member: Address, data: Any, state: _MemberViewState) -> None:
        stamp: Optional[VectorClock] = data.stamp
        if stamp is None:
            self._report(
                "VS003",
                data.group,
                member,
                f"causal message {data.message_id} has no vector stamp",
            )
            return
        clock = state.causal_clock
        sender = data.sender
        if stamp.get(sender) != clock.get(sender) + 1:
            self._report(
                "VS003",
                data.group,
                member,
                f"causal delivery of {data.message_id} skips sender "
                f"predecessors: stamp[{sender}]={stamp.get(sender)}, "
                f"delivered={clock.get(sender)}",
            )
        missing = [
            site
            for site, count in stamp.items()
            if site != sender and count > clock.get(site)
        ]
        if missing:
            self._report(
                "VS003",
                data.group,
                member,
                f"causal delivery of {data.message_id} precedes its "
                f"dependencies from {sorted(missing)}",
            )
        state.causal_clock = clock.merged(stamp)

    def observe_view(self, member: Address, event: ViewEvent) -> None:
        """Record a view installation; runs the view-agreement check and
        closes the member's previous view (the virtual-synchrony check)."""
        self.views_checked += 1
        view = event.view
        key = (view.group, view.seq)
        self._note_view_membership(member, key, tuple(view.members))
        if member not in view.members:
            return  # departed/excluded: no survivor guarantees to check
        # Close the previous view at this member and compare delivered
        # sets against other fully-observed survivors.
        prev_key = (view.group, view.seq - 1)
        prev_state = self._state.get(prev_key, {}).get(member)
        if prev_state is not None and not prev_state.closed:
            prev_state.closed = True
            if prev_state.full:
                self._check_gap_free(prev_key, member, prev_state)
                self._compare_closed_view(prev_key, member)
        self._state.setdefault(key, {}).setdefault(
            member, _MemberViewState(full=True)
        )
        self._observed.setdefault(member, {}).setdefault(view.group, set()).add(
            view.seq
        )

    def _note_view_membership(
        self, member: Address, key: _ViewKey, members: Tuple[Address, ...]
    ) -> None:
        agreed = self._views.get(key)
        if agreed is None:
            self._views[key] = members
        elif agreed != members:
            self._report(
                "VS001",
                key[0],
                member,
                f"view seq {key[1]} diverges: {members} vs {agreed}",
            )

    # ----------------------------------------------------------- comparisons

    def _fully_observed(self, member: Address, group: str, seq: int) -> bool:
        return seq in self._observed.get(member, {}).get(group, set())

    def _check_gap_free(
        self, key: _ViewKey, member: Address, state: _MemberViewState
    ) -> None:
        """Every sender's delivered seqs must be exactly 1..max — sound
        once the view is complete (closed by a flush, or drained)."""
        group, view_seq = key
        per_sender: Dict[Address, Set[int]] = {}
        for sender, seq in state.delivered:
            per_sender.setdefault(sender, set()).add(seq)
        for sender, seqs in sorted(per_sender.items()):
            highest = max(seqs)
            missing = set(range(1, highest)) - seqs
            if missing:
                self._report(
                    "VS002",
                    group,
                    member,
                    f"per-sender gap: view seq {view_seq} delivered "
                    f"{sender}#{highest} but never #{sorted(missing)}",
                )

    def _compare_closed_view(self, key: _ViewKey, member: Address) -> None:
        group, seq = key
        mine = self._state[key][member].delivered
        for other, other_state in self._state.get(key, {}).items():
            if other == member or not other_state.closed:
                continue
            if not (other_state.full and self._fully_observed(other, group, seq)):
                continue
            if other_state.delivered != mine:
                only_mine = sorted(mine - other_state.delivered)
                only_other = sorted(other_state.delivered - mine)
                self._report(
                    "VS004",
                    group,
                    member,
                    f"view seq {seq} delivery sets diverge from {other}: "
                    f"only here {only_mine}, only there {only_other}",
                )

    def _compare_total_orders(self) -> None:
        for (group, seq), per_member in sorted(self._state.items()):
            members = sorted(m for m, s in per_member.items() if s.total_order)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    order_a = per_member[a].total_order
                    order_b = per_member[b].total_order
                    common = set(order_a) & set(order_b)
                    shared_a = [m for m in order_a if m in common]
                    shared_b = [m for m in order_b if m in common]
                    if shared_a != shared_b:
                        self._report(
                            "VS006",
                            group,
                            a,
                            f"TOTAL order in view seq {seq} diverges from "
                            f"{b}: {shared_a} vs {shared_b}",
                        )

    # ---------------------------------------------------------------- report

    def check(self, at_quiescence: bool = False) -> Dict[str, int]:
        """Run the cross-member comparisons and raise on any violation.

        With ``at_quiescence=True`` the delivery sets of still-open views
        are also compared — only valid once the simulation has drained
        (every multicast has reached every member).
        """
        self._compare_total_orders()
        if at_quiescence:
            for (group, seq), per_member in sorted(self._state.items()):
                for addr, state in sorted(per_member.items()):
                    if state.full and not state.closed:
                        self._check_gap_free((group, seq), addr, state)
                eligible = {
                    m: s.delivered
                    for m, s in per_member.items()
                    if s.full and not s.closed and self._fully_observed(m, group, seq)
                }
                sets = {frozenset(v) for v in eligible.values()}
                if len(sets) > 1:
                    detail = ", ".join(
                        f"{m}:{len(v)}" for m, v in sorted(eligible.items())
                    )
                    self._report(
                        "VS004",
                        group,
                        next(iter(sorted(eligible))),
                        f"open view seq {seq} delivery sets diverge at "
                        f"quiescence ({detail})",
                    )
        if self.violations:
            summary = "; ".join(
                f"{v.code}@{v.group}/{v.member}" for v in self.violations[:5]
            )
            raise VirtualSynchronyViolation(
                self.violations[0].code,
                f"{len(self.violations)} violation(s): {summary}",
            )
        return self.summary()

    def summary(self) -> Dict[str, int]:
        return {
            "deliveries_checked": self.deliveries_checked,
            "views_checked": self.views_checked,
            "violations": len(self.violations),
        }


def install_sanitizer(
    members: Iterable[Any], strict: bool = True
) -> VirtualSynchronySanitizer:
    """Convenience: attach a fresh sanitizer to every given member."""
    sanitizer = VirtualSynchronySanitizer(strict=strict)
    sanitizer.attach_all(members)
    return sanitizer
