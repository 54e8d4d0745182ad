"""Datagram network: latency models, partitions, multicast, stats, and
the versioned wire codec the socket backend deploys over."""

from repro.net.latency import (
    FixedLatency,
    LanLatency,
    LatencyModel,
    SiteLatency,
    UniformLatency,
)
from repro.net.message import (
    Address,
    DEFAULT_PAYLOAD_BYTES,
    Envelope,
    HEADER_BYTES,
    payload_category,
    payload_meta,
    payload_size,
)
from repro.net.network import Network
from repro.net.partition import PartitionManager
from repro.net.stats import NetworkStats, StatsSnapshot
from repro.net.wire import (
    CodecError,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_frame,
    encode_control_frame,
    encode_data_frames,
    register_kind,
)

__all__ = [
    "Address",
    "CodecError",
    "DEFAULT_PAYLOAD_BYTES",
    "Envelope",
    "FixedLatency",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "LanLatency",
    "LatencyModel",
    "Network",
    "NetworkStats",
    "PartitionManager",
    "SiteLatency",
    "StatsSnapshot",
    "UniformLatency",
    "decode_frame",
    "encode_control_frame",
    "encode_data_frames",
    "register_kind",
    "payload_category",
    "payload_meta",
    "payload_size",
]
