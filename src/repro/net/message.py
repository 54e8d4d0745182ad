"""Wire-level message envelope and payload conventions.

Payloads are ordinary objects (usually dataclasses defined by each protocol
module).  Two optional attributes are respected network-wide:

``category``
    A short string used to bucket the message in :class:`~repro.net.stats.
    NetworkStats` (e.g. ``"abcast"``, ``"heartbeat"``, ``"view-change"``).
    Defaults to the payload's class name.

``size_bytes``
    Approximate payload size used by latency models and byte counters.
    Defaults to :data:`DEFAULT_PAYLOAD_BYTES`.

Both attributes are declared at *class* level — either as plain class
attributes (``category = "heartbeat"``) or as descriptors (a property,
or a slot filled per instance, as the transport's ``Segment`` fills them
from its inner payload).  The lookup is cached per payload class, so an
instance-dict assignment of these names over a class constant is not
supported (and is used nowhere in the library).  The envelope carries
neither: the network reads them when it sends, for its counts and its
latency draw.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

Address = str
"""A process endpoint name, e.g. ``"broker-3"``.  Unique per network."""

DEFAULT_PAYLOAD_BYTES = 128
HEADER_BYTES = 64

# Per-class lookup plan: (static_category | None, static_size | None).
# None means "dynamic" — the class defines the attribute as a descriptor
# (property), so it must be read from the instance on every call.
_META_CACHE: Dict[type, Tuple] = {}


def _register(cls: type) -> Tuple:
    category = getattr(cls, "category", None)
    if category is None:
        static_category = cls.__name__
    elif isinstance(category, str):
        static_category = category
    else:  # property / descriptor
        static_category = None
    size = getattr(cls, "size_bytes", None)
    if size is None:
        static_size = DEFAULT_PAYLOAD_BYTES
    elif isinstance(size, (int, float)):
        static_size = int(size)
    else:  # property / descriptor
        static_size = None
    meta = (static_category, static_size)
    _META_CACHE[cls] = meta
    return meta


def payload_category(payload: Any) -> str:
    """Stats bucket for a payload: its ``category`` or its class name."""
    cls = payload.__class__
    meta = _META_CACHE.get(cls)
    if meta is None:
        meta = _register(cls)
    category = meta[0]
    return category if category is not None else payload.category


def payload_meta(payload: Any) -> Tuple[str, int]:
    """(category, size) in one cached lookup — the network's send path."""
    cls = payload.__class__
    meta = _META_CACHE.get(cls)
    if meta is None:
        meta = _register(cls)
    category, size = meta
    if category is None:
        category = payload.category
    if size is None:
        size = int(payload.size_bytes)
    return category, size


class Envelope:
    """One datagram in flight between two endpoints: its source, its
    destination and its payload.  The network reads the clock and the
    payload's size model where it needs them; nothing else travels.

    A ``__slots__`` class (not a dataclass): envelopes are the most
    allocated object in any run, one per datagram.
    """

    __slots__ = ("src", "dst", "payload", "trace")

    def __init__(self, src: Address, dst: Address, payload: Any) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        # Causal-trace context piggybacked on the datagram: the send span
        # recorded by repro.trace when tracing is on, else None.  The
        # network fills it in; protocol code never touches it.
        self.trace = None

    @property
    def category(self) -> str:
        return payload_category(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.payload == other.payload
        )
