"""Failure detection and crash injection."""

from repro.failure.detector import (
    FailureDetector,
    Heartbeat,
    HeartbeatDetector,
    OracleDetector,
    Subscribe,
    Unsubscribe,
)
from repro.failure.injector import CrashInjector, InjectionRecord

__all__ = [
    "CrashInjector",
    "FailureDetector",
    "Heartbeat",
    "HeartbeatDetector",
    "InjectionRecord",
    "OracleDetector",
    "Subscribe",
    "Unsubscribe",
]
