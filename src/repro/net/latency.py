"""Latency models for the simulated network.

A latency model maps (source, destination, payload size) to a one-way delay.
The default :class:`LanLatency` approximates the 10 Mb/s Ethernet LAN of the
paper's era: a fixed propagation/processing base, a per-byte transmission
cost, and multiplicative jitter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.net.message import Address
from repro.runtime.api import SimRandom


class LatencyModel(ABC):
    """Strategy object: one-way delay for a datagram."""

    @abstractmethod
    def sample(
        self, rng: SimRandom, src: Address, dst: Address, size_bytes: int
    ) -> float:
        """Return the one-way delay in seconds."""


class FixedLatency(LatencyModel):
    """Constant delay; useful for fully deterministic protocol tests."""

    def __init__(self, delay: float = 0.001) -> None:
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        self.delay = delay

    def sample(
        self, rng: SimRandom, src: Address, dst: Address, size_bytes: int
    ) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [lo, hi]."""

    def __init__(self, lo: float = 0.0005, hi: float = 0.002) -> None:
        if not 0 <= lo <= hi:
            raise ValueError("require 0 <= lo <= hi")
        self.lo = lo
        self.hi = hi

    def sample(
        self, rng: SimRandom, src: Address, dst: Address, size_bytes: int
    ) -> float:
        return rng.uniform(self.lo, self.hi)


class SiteLatency(LatencyModel):
    """Long-distance links (paper §5: "considerations of long-distance
    links"): endpoints belong to *sites*; traffic within a site uses the
    local model, traffic between sites adds a WAN delay.

    ``site_of`` maps an address to its site name; the default takes the
    prefix before the first ``"."`` (e.g. ``"nyc.trader-3"`` -> ``"nyc"``),
    so single-token addresses all share one site.
    """

    def __init__(
        self,
        local: Optional["LatencyModel"] = None,
        wan_delay: float = 0.030,
        wan_jitter: float = 0.25,
        site_of=None,
    ) -> None:
        if wan_delay < 0 or not 0 <= wan_jitter < 1:
            raise ValueError("invalid WAN parameters")
        self.local = local if local is not None else LanLatency()
        self.wan_delay = wan_delay
        self.wan_jitter = wan_jitter
        self._site_of = site_of if site_of is not None else _prefix_site

    def site_of(self, address: Address) -> str:
        return self._site_of(address)

    def sample(
        self, rng: SimRandom, src: Address, dst: Address, size_bytes: int
    ) -> float:
        delay = self.local.sample(rng, src, dst, size_bytes)
        if self.site_of(src) != self.site_of(dst):
            wan = self.wan_delay
            if self.wan_jitter:
                wan *= rng.uniform(1.0 - self.wan_jitter, 1.0 + self.wan_jitter)
            delay += wan
        return delay


def _prefix_site(address: Address) -> str:
    return address.split(".", 1)[0] if "." in address else ""


class LanLatency(LatencyModel):
    """Late-1980s Ethernet LAN: base delay + per-byte cost + jitter.

    Defaults give ~1 ms for a small datagram, in line with the paper's
    "sub-second response" budgets being dominated by protocol hops rather
    than the wire.
    """

    def __init__(
        self,
        base: float = 0.0008,
        per_byte: float = 8e-7,  # 10 Mb/s  ~= 0.8 us/byte
        jitter: float = 0.2,
    ) -> None:
        if base < 0 or per_byte < 0 or not 0 <= jitter < 1:
            raise ValueError("invalid LAN latency parameters")
        self.base = base
        self.per_byte = per_byte
        self.jitter = jitter

    def sample(
        self, rng: SimRandom, src: Address, dst: Address, size_bytes: int
    ) -> float:
        nominal = self.base + self.per_byte * size_bytes
        if self.jitter == 0:
            return nominal
        return nominal * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
