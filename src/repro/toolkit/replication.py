"""Data replication tools: replicated state machines over abcast.

The toolkit's "data replication" entry: updates are totally ordered
multicasts applied by every member, reads are local.  Virtual synchrony
makes the recipe sound: all members apply the same update sequence, view
changes deliver pending updates to all survivors first, and joiners
receive a state snapshot through the membership layer's state transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.membership.events import TOTAL, GroupData
from repro.membership.group import GroupMember
from repro.net.message import Address


@dataclass
class SMCommand:
    """A state-machine command, totally ordered within the group."""

    category = "sm-command"
    machine: str
    command: Any = None


class ReplicatedStateMachine:
    """Generic abcast-driven replicated state machine.

    ``apply_fn(state, command) -> result`` must be deterministic; every
    member applies the same command sequence to identical state.
    """

    def __init__(
        self,
        member: GroupMember,
        machine: str,
        initial_state: Callable[[], Any],
        apply_fn: Callable[[Any, Any], Any],
        snapshot_fn: Optional[Callable[[Any], Any]] = None,
        restore_fn: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.member = member
        self.machine = machine
        self.state = initial_state()
        self._apply_fn = apply_fn
        self._snapshot_fn = snapshot_fn if snapshot_fn else lambda s: s
        self._restore_fn = restore_fn if restore_fn else lambda s: s
        self.commands_applied = 0
        # Copy-on-write, as the member's own delivery listeners.
        self._listeners: Tuple[Callable[[Any, Any], None], ...] = ()
        member.add_delivery_listener(self._on_delivery)
        # State transfer for joiners (one machine per group may own the
        # transfer hooks; compose multiple machines with a dict if needed).
        if member.state_provider is None:
            member.state_provider = lambda: self._snapshot_fn(self.state)
        if member.state_receiver is None:
            member.state_receiver = self._receive_state

    def submit(self, command: Any) -> None:
        """Replicate ``command`` to the whole group (applied locally when
        its total-order position is known, like every other member)."""
        self.member.multicast(
            SMCommand(machine=self.machine, command=command), TOTAL
        )

    def add_listener(self, fn: Callable[[Any, Any], None]) -> None:
        """``fn(command, result)`` after each applied command."""
        self._listeners += (fn,)

    def _on_delivery(self, event: GroupData) -> None:
        payload = event.payload
        if not isinstance(payload, SMCommand) or payload.machine != self.machine:
            return
        result = self._apply_fn(self.state, payload.command)
        self.commands_applied += 1
        for listener in self._listeners:
            listener(payload.command, result)

    def _receive_state(self, snapshot: Any) -> None:
        self.state = self._restore_fn(snapshot)


class ReplicatedDict:
    """A replicated key-value table: local reads, abcast writes."""

    def __init__(self, member: GroupMember, name: str = "dict") -> None:
        self._machine = ReplicatedStateMachine(
            member,
            machine=name,
            initial_state=dict,
            apply_fn=self._apply,
            snapshot_fn=dict,
            restore_fn=dict,
        )

    @staticmethod
    def _apply(state: Dict, command: Tuple) -> Any:
        kind = command[0]
        if kind == "put":
            _, key, value = command
            state[key] = value
            return value
        if kind == "delete":
            return state.pop(command[1], None)
        if kind == "clear":
            state.clear()
            return None
        raise ValueError(f"unknown command {command!r}")

    # -- write (replicated) -----------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        self._machine.submit(("put", key, value))

    def delete(self, key: Any) -> None:
        self._machine.submit(("delete", key))

    def clear(self) -> None:
        self._machine.submit(("clear",))

    # -- read (local) -------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self._machine.state.get(key, default)

    def snapshot(self) -> Dict:
        return dict(self._machine.state)

    def __len__(self) -> int:
        return len(self._machine.state)

    def __contains__(self, key: Any) -> bool:
        return key in self._machine.state

    @property
    def commands_applied(self) -> int:
        return self._machine.commands_applied

    def add_listener(self, fn: Callable[[Any, Any], None]) -> None:
        self._machine.add_listener(fn)
