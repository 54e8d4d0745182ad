"""Failure detection and crash injection."""

from repro.failure.detector import (
    FailureDetector,
    Heartbeat,
    HeartbeatDetector,
    OracleDetector,
    Probe,
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
    "Probe",
    "Subscribe",
    "Unsubscribe",
]
