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
supported (and is used nowhere in the library).
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


def payload_size(payload: Any) -> int:
    """Approximate wire size of a payload in bytes (excluding header)."""
    cls = payload.__class__
    meta = _META_CACHE.get(cls)
    if meta is None:
        meta = _register(cls)
    size = meta[1]
    return size if size is not None else int(payload.size_bytes)


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
    """One datagram in flight between two endpoints.

    A ``__slots__`` class (not a dataclass): envelopes are the most
    allocated object in any run, one per datagram.
    """

    __slots__ = (
        "src",
        "dst",
        "payload",
        "send_time",
        "deliver_time",
        "size_bytes",
        "trace",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        send_time: float,
        deliver_time: float = 0.0,
        size_bytes: int = DEFAULT_PAYLOAD_BYTES,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.size_bytes = size_bytes
        # Causal-trace context piggybacked on the datagram: the send span
        # recorded by repro.trace when tracing is on, else None.  The
        # network fills it in; protocol code never touches it.
        self.trace = None

    @property
    def category(self) -> str:
        return payload_category(self.payload)

    @property
    def total_bytes(self) -> int:
        return self.size_bytes + HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, send_time={self.send_time!r}, "
            f"deliver_time={self.deliver_time!r}, size_bytes={self.size_bytes!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.payload == other.payload
            and self.send_time == other.send_time
            and self.deliver_time == other.deliver_time
            and self.size_bytes == other.size_bytes
        )
