"""Network statistics: the measurement substrate for every benchmark.

The paper's claims are phrased in *message counts* ("2n messages", "traffic
grows as the square of the number of clients"), so the network counts every
datagram exactly, bucketed by category, sender and receiver.  Wire packets
are counted separately from logical messages so the hardware-multicast
experiment (E9) can show one wire packet carrying n logical deliveries.

Counters can be snapshotted and diffed, which is how benchmarks isolate the
cost of a single operation::

    before = net.stats.snapshot()
    service.request(...)
    env.run_for(1.0)
    delta = net.stats.since(before)
    assert delta.messages == 2 * n
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.net.message import Address


class Tally(dict):
    """A plain dict that reads like a Counter (missing keys are 0).

    Writes in the hot counting paths use ``d[k] = d.get(k, 0) + 1`` on the
    exact ``dict`` C implementation — measurably cheaper per message than
    ``collections.Counter`` — while reads keep the Counter-style
    zero-default the tests and experiments rely on.
    """

    __slots__ = ()

    def __missing__(self, key):  # Counter-compatible reads
        return 0


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable copy of the counters at one instant."""

    messages: int
    wire_packets: int
    bytes: int
    dropped: int
    by_category: Dict[str, int] = field(default_factory=dict)
    sent_by: Dict[Address, int] = field(default_factory=dict)
    received_by: Dict[Address, int] = field(default_factory=dict)
    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    acks_piggybacked: int = 0


class NetworkStats:
    """Mutable counters owned by a :class:`~repro.net.network.Network`."""

    __slots__ = (
        "messages",
        "wire_packets",
        "bytes",
        "dropped",
        "by_category",
        "sent_by",
        "received_by",
        "bytes_by_category",
        "acks_piggybacked",
    )

    def __init__(self) -> None:
        self.messages = 0
        self.wire_packets = 0
        self.bytes = 0
        self.dropped = 0
        self.by_category: Tally = Tally()
        self.sent_by: Tally = Tally()
        self.received_by: Tally = Tally()
        self.bytes_by_category: Tally = Tally()
        # Transport acks that cost no datagram of their own: they rode
        # on a reverse segment or were absorbed into one cumulative
        # standalone ack (docs/comms.md).  Segments received ==
        # standalone "transport-ack" messages + this counter.
        self.acks_piggybacked = 0

    def record_send(self, src: Address, category: str, total_bytes: int) -> None:
        """Count one logical message (one destination) leaving ``src``."""
        self.messages += 1
        self.bytes += total_bytes
        by_category = self.by_category
        by_category[category] = by_category.get(category, 0) + 1
        bytes_by_category = self.bytes_by_category
        bytes_by_category[category] = (
            bytes_by_category.get(category, 0) + total_bytes
        )
        sent_by = self.sent_by
        sent_by[src] = sent_by.get(src, 0) + 1

    def record_wire(self, packets: int = 1) -> None:
        """Count physical packets on the wire (1 per unicast; 1 per
        hardware-multicast send regardless of destination count)."""
        self.wire_packets += packets

    def record_delivery(self, dst: Address) -> None:
        received_by = self.received_by
        received_by[dst] = received_by.get(dst, 0) + 1

    def record_drop(self) -> None:
        self.dropped += 1

    def snapshot(self) -> StatsSnapshot:
        return StatsSnapshot(
            messages=self.messages,
            wire_packets=self.wire_packets,
            bytes=self.bytes,
            dropped=self.dropped,
            by_category=dict(self.by_category),
            sent_by=dict(self.sent_by),
            received_by=dict(self.received_by),
            bytes_by_category=dict(self.bytes_by_category),
            acks_piggybacked=self.acks_piggybacked,
        )

    def since(self, before: StatsSnapshot) -> StatsSnapshot:
        """Difference between the counters now and an earlier snapshot."""
        now = self.snapshot()
        return StatsSnapshot(
            messages=now.messages - before.messages,
            wire_packets=now.wire_packets - before.wire_packets,
            bytes=now.bytes - before.bytes,
            dropped=now.dropped - before.dropped,
            by_category=_diff(now.by_category, before.by_category),
            sent_by=_diff(now.sent_by, before.sent_by),
            received_by=_diff(now.received_by, before.received_by),
            bytes_by_category=_diff(
                now.bytes_by_category, before.bytes_by_category
            ),
            acks_piggybacked=now.acks_piggybacked - before.acks_piggybacked,
        )

    def reset(self) -> None:
        self.__init__()


def _diff(now: Dict, before: Dict) -> Dict:
    out = {}
    for key, value in now.items():
        delta = value - before.get(key, 0)
        if delta:
            out[key] = delta
    return out
