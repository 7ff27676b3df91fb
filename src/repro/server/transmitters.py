"""FM transmitter fleet, geographic routing, and broadcast encode caching.

"We assume that the FM radio infrastructure consists of multiple
transmitters (and frequencies) at different locations ... the request
contains the geographic location of the user [which] is needed by SONIC
server to inform the proper transmitter along with its frequency"
(Sections 3.1).  Each transmitter owns a broadcast carousel; requests
are routed to the transmitter whose coverage disc contains the user.

The carousel rebroadcasts popular pages hour after hour, and most hours
the page has not changed — so each transmitter also owns a
:class:`BroadcastEncodeCache`, an LRU keyed on the payload digest that
lets a repeat broadcast of unchanged content reuse the chunked frames
instead of re-chunking them.  The cache holds frames only: the streaming
transmitter modulates each burst afresh and keeps none it has sent.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.geometry import Location, distance_km
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.transport.framing import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.transport.bundle import BundleTransport

__all__ = [
    "payload_digest",
    "CacheStats",
    "BroadcastEncodeCache",
    "Transmitter",
    "TransmitterRegistry",
]


def payload_digest(data: bytes) -> str:
    """Stable content digest used as the broadcast cache key."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of the frame cache."""

    frame_hits: int = 0
    frame_misses: int = 0
    # Always 0: no burst is cached.  The bench's delivery workloads
    # (bench/workloads.py) still read them for their burst hit ratio.
    burst_hits: int = 0
    burst_misses: int = 0


class BroadcastEncodeCache:
    """LRU cache of chunked frames.

    Entries are keyed on ``(payload digest, page_id, version)`` —
    everything :meth:`BundleTransport.chunk` depends on.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, key: tuple) -> Any | None:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def _put(self, key: tuple, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def frames(
        self,
        data: bytes,
        page_id: int,
        version: int,
        transport: "BundleTransport",
        digest: str | None = None,
    ) -> list[Frame]:
        """Chunked frames for a payload, reused across repeat broadcasts."""
        digest = digest if digest is not None else payload_digest(data)
        key = ("frames", digest, page_id, version)
        cached = self._get(key)
        if cached is not None:
            self.stats.frame_hits += 1
            return cached
        self.stats.frame_misses += 1
        frames = transport.chunk(data, page_id=page_id, version=version)
        self._put(key, frames)
        return frames


@dataclass
class Transmitter:
    """One FM transmitter participating in SONIC.

    ``station_id`` doubles as the call sign.  The transmitter owns its
    broadcast carousel and the encode cache its enqueues chunk through.
    """

    station_id: str
    location: Location
    frequency_mhz: float
    coverage_km: float
    rate_bps: float = 10_000.0
    carousel: BroadcastCarousel = field(init=False)
    cache: BroadcastEncodeCache = field(init=False)

    def __post_init__(self) -> None:
        if not 76.0 <= self.frequency_mhz <= 108.0:
            raise ValueError(f"{self.frequency_mhz} MHz outside the FM band")
        if self.coverage_km <= 0:
            raise ValueError("coverage radius must be positive")
        self.carousel = BroadcastCarousel(self.rate_bps)
        self.cache = BroadcastEncodeCache()

    def covers(self, where: Location) -> bool:
        return distance_km(self.location, where) <= self.coverage_km

    def enqueue(
        self,
        url: str,
        data: bytes,
        priority: float,
        page_id: int,
        transport: "BundleTransport",
        version: int = 0,
    ) -> None:
        """Queue ``data`` on this transmitter's carousel.

        Frame chunking goes through :attr:`cache`, so a repeat broadcast
        of byte-identical content (the hourly carousel case, or two
        users requesting the same page) reuses the previously chunked
        frames instead of re-encoding them.
        """
        digest = payload_digest(data)
        frames = self.cache.frames(
            data, page_id=page_id, version=version, transport=transport, digest=digest
        )
        self.carousel.enqueue(
            CarouselItem(
                url, len(data), priority=priority, frames=frames, digest=digest
            )
        )


class TransmitterRegistry:
    """Lookup of transmitters by call sign and by location.

    The index is a plain insertion-ordered dict, so :meth:`all` is
    deterministic: two registries built from the same ``add`` sequence
    iterate identically, whatever process or hash seed runs them (a
    property test pins this).
    """

    def __init__(self, transmitters: list[Transmitter] | None = None) -> None:
        self._by_id: dict[str, Transmitter] = {}
        for tx in transmitters or []:
            self.add(tx)

    def add(self, tx: Transmitter) -> None:
        if tx.station_id in self._by_id:
            raise ValueError(f"duplicate call sign {tx.station_id}")
        self._by_id[tx.station_id] = tx

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, station_id: str) -> Transmitter:
        return self._by_id[station_id]

    def all(self) -> list[Transmitter]:
        return list(self._by_id.values())

    def covering(self, where: Location) -> Transmitter | None:
        """The nearest transmitter that covers ``where``, if any."""
        candidates = [tx for tx in self._by_id.values() if tx.covers(where)]
        if not candidates:
            return None
        return min(candidates, key=lambda tx: distance_km(tx.location, where))
