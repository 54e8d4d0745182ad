"""Measurement helpers and table rendering for experiments."""

from repro.metrics.counters import (
    LatencySample,
    data_messages,
    fit_power_law,
    processes_touched,
    view_storage_entries,
)
from repro.metrics.digest import DeliveryDigest
from repro.metrics.sanitizer import (
    Violation,
    VirtualSynchronySanitizer,
    VirtualSynchronyViolation,
    install_sanitizer,
)
from repro.metrics.tables import format_table, print_table

__all__ = [
    "DeliveryDigest",
    "LatencySample",
    "Violation",
    "VirtualSynchronySanitizer",
    "VirtualSynchronyViolation",
    "install_sanitizer",
    "data_messages",
    "fit_power_law",
    "format_table",
    "print_table",
    "processes_touched",
    "view_storage_entries",
]
