"""Versioned binary wire codec for the socket backend.

``codec`` is the mechanism (tagged value encoding, frame header,
registry); ``registry`` is the policy (every protocol payload kind the
RL013 handler census knows about, bound to a stable wire id).  Importing
this package registers nothing — callers that are about to touch a real
socket run :func:`repro.net.wire.registry.ensure_registered` first.
"""

from repro.net.wire.codec import (
    CodecError,
    FRAME_CONTROL,
    FRAME_DATA,
    FrameTooLarge,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_frame,
    encode_control_frame,
    encode_data_frames,
    register_kind,
    registered_kinds,
)

__all__ = [
    "CodecError",
    "FrameTooLarge",
    "FRAME_CONTROL",
    "FRAME_DATA",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "decode_frame",
    "encode_control_frame",
    "encode_data_frames",
    "register_kind",
    "registered_kinds",
]
