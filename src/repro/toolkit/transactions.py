"""Distributed transactions (the toolkit's transaction tool): two-phase
commit across replicated resources.

Each participating *resource* is a process group running a
:class:`TransactionResource` (a lock-guarded, replicated key-value table).
A :class:`TransactionCoordinator` drives the classic protocol: PREPARE to
every participant's group coordinator, collect votes, then COMMIT or
ABORT.  Resource groups replicate their staged writes with abcast, so a
participant survives cohort failures between prepare and commit — the
standard ISIS construction of transactions on top of resilient groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.membership.events import TOTAL, GroupData
from repro.membership.group import GroupMember
from repro.net.message import Address
from repro.proc.process import Process
from repro.proc.rpc import Rpc, redirect


@dataclass
class TxPrepare:
    """RPC body: stage these writes; vote yes/no."""

    txid: str
    writes: Tuple[Tuple[Any, Any], ...] = ()


@dataclass
class TxDecision:
    """RPC body: commit or abort a previously prepared transaction."""

    txid: str
    commit: bool = False


@dataclass
class TxReplicatedOp:
    """abcast within the resource group: stage / commit / abort."""

    category = "tx-op"
    resource: str
    kind: str  # "stage" | "commit" | "abort"
    txid: str = ""
    writes: Tuple[Tuple[Any, Any], ...] = ()


class TransactionResource:
    """One member's replica of a transactional key-value resource."""

    def __init__(self, member: GroupMember, resource: str) -> None:
        self.member = member
        self.resource = resource
        self.data: Dict[Any, Any] = {}
        self.staged: Dict[str, Tuple[Tuple[Any, Any], ...]] = {}
        self.locked_keys: Dict[Any, str] = {}
        # Keys this group coordinator has voted yes on but whose replicated
        # stage has not yet been delivered: without this, two prepares in
        # that window would both vote yes on the same key.
        self._voting: Dict[Any, str] = {}
        self.decided: Dict[str, bool] = {}
        member.add_delivery_listener(self._on_delivery)
        try:
            member.runtime.rpc.serve(TxPrepare, self._serve_prepare)
            member.runtime.rpc.serve(TxDecision, self._serve_decision)
        except ValueError:
            # Another resource on this process already serves these; a
            # shared-dispatch variant would be needed for that layout.
            raise ValueError(
                "one TransactionResource per process (shared RPC types)"
            )

    # -- coordinator-facing RPCs (answered by the group's acting coordinator) ---------

    def _serve_prepare(self, body: TxPrepare, sender: Address):
        if not self.member.is_coordinator:
            return redirect(self.member.acting_coordinator())
        conflict = any(
            key in self.locked_keys or key in self._voting
            for key, _ in body.writes
        )
        if conflict:
            return ("no",)
        for key, _value in body.writes:
            self._voting[key] = body.txid
        # Replicate the stage so cohorts hold the locks and writes too.
        self.member.multicast(
            TxReplicatedOp(
                resource=self.resource,
                kind="stage",
                txid=body.txid,
                writes=tuple(body.writes),
            ),
            TOTAL,
        )
        return ("yes",)

    def _serve_decision(self, body: TxDecision, sender: Address):
        if not self.member.is_coordinator:
            return redirect(self.member.acting_coordinator())
        self.member.multicast(
            TxReplicatedOp(
                resource=self.resource,
                kind="commit" if body.commit else "abort",
                txid=body.txid,
            ),
            TOTAL,
        )
        return ("ok",)

    # -- replicated application ---------------------------------------------------

    def _on_delivery(self, event: GroupData) -> None:
        payload = event.payload
        if not isinstance(payload, TxReplicatedOp) or payload.resource != self.resource:
            return
        if payload.kind == "stage":
            if payload.txid in self.decided:
                return
            self.staged[payload.txid] = payload.writes
            for key, _value in payload.writes:
                self.locked_keys[key] = payload.txid
                if self._voting.get(key) == payload.txid:
                    del self._voting[key]
        elif payload.kind == "commit":
            writes = self.staged.pop(payload.txid, ())
            for key, value in writes:
                self.data[key] = value
            self._unlock(payload.txid)
            self.decided[payload.txid] = True
        elif payload.kind == "abort":
            self.staged.pop(payload.txid, None)
            self._unlock(payload.txid)
            self.decided[payload.txid] = False

    def _unlock(self, txid: str) -> None:
        for key in [k for k, t in self.locked_keys.items() if t == txid]:
            del self.locked_keys[key]
        for key in [k for k, t in self._voting.items() if t == txid]:
            del self._voting[key]

    # -- local reads ------------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self.data.get(key, default)


class TransactionCoordinator:
    """Drives 2PC from any process against resource-group contacts."""

    def __init__(self, process: Process, rpc: Optional[Rpc] = None,
                 timeout: float = 1.0) -> None:
        self.process = process
        self._ids = process.env.ids["tx"]
        self.rpc = rpc if rpc is not None else Rpc(process)
        self.timeout = timeout
        self.log: List[Tuple[str, str]] = []  # (txid, outcome)

    def execute(
        self,
        participants: Dict[Address, List[Tuple[Any, Any]]],
        on_done: Callable[[bool], None],
    ) -> str:
        """Run one transaction: ``participants`` maps each resource-group
        contact to the writes destined for that resource.  ``on_done``
        receives the commit decision."""
        txid = f"{self.process.address}/tx{next(self._ids)}"
        votes: Dict[Address, Optional[bool]] = {c: None for c in participants}

        def decide_and_finish(commit: bool) -> None:
            self.log.append((txid, "commit" if commit else "abort"))
            remaining = [len(participants)]

            def one_done(*_reply) -> bool:
                remaining[0] -= 1
                if remaining[0] == 0:
                    on_done(commit)
                return True

            for contact in participants:
                self.rpc.walk(
                    (contact,),
                    TxDecision(txid=txid, commit=commit),
                    one_done,
                    self.timeout,
                    exhausted=one_done,
                )

        def vote(contact: Address, value) -> bool:
            votes[contact] = bool(value and value[0] == "yes")
            if any(v is False for v in votes.values()):
                if all(v is not None for v in votes.values()):
                    decide_and_finish(False)
            elif all(v for v in votes.values()):
                decide_and_finish(True)
            return True

        for contact, writes in participants.items():
            self.rpc.walk(
                (contact,),
                TxPrepare(txid=txid, writes=tuple(writes)),
                lambda value, sender, c=contact: vote(c, value),
                self.timeout,
                exhausted=lambda c=contact: vote(c, ("no",)),
            )
        return txid
