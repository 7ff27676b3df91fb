"""FM transmitter fleet, geographic routing, and broadcast encode caching.

"We assume that the FM radio infrastructure consists of multiple
transmitters (and frequencies) at different locations ... the request
contains the geographic location of the user [which] is needed by SONIC
server to inform the proper transmitter along with its frequency"
(Sections 3.1).  Each transmitter owns a broadcast carousel; requests
are routed to the transmitter whose coverage disc contains the user.

The carousel rebroadcasts popular pages hour after hour, and most hours
the page has not changed — so each transmitter also owns a
:class:`BroadcastEncodeCache`, an LRU keyed on the payload digest (plus
modem profile and FEC parameters for the waveform level) that lets a
repeat broadcast of unchanged content reuse the chunked frames and the
modulated waveform instead of re-encoding them.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sim.geometry import Location, distance_km
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.transport.framing import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.modem.modem import Modem
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
    """Hit/miss counters, split by what the cache avoided re-computing."""

    frame_hits: int = 0
    frame_misses: int = 0
    waveform_hits: int = 0
    waveform_misses: int = 0
    burst_hits: int = 0
    burst_misses: int = 0

    @property
    def hits(self) -> int:
        return self.frame_hits + self.waveform_hits + self.burst_hits

    @property
    def misses(self) -> int:
        return self.frame_misses + self.waveform_misses + self.burst_misses


class BroadcastEncodeCache:
    """LRU cache of encoded frames and modulated waveforms.

    Frame entries are keyed on ``(payload digest, page_id, version)`` —
    everything :meth:`BundleTransport.chunk` depends on.  Waveform entries
    additionally carry the modem profile name, its FEC parameters, and the
    burst size, so different stations or profiles never share samples.
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

    def waveform(
        self,
        frames: list[Frame],
        digest: str,
        modem: "Modem",
        frames_per_burst: int = 16,
    ) -> np.ndarray:
        """Modulated audio for a frame list, cached per content + profile."""
        profile = modem.profile
        key = ("waveform", digest, profile.name, profile.fec, frames_per_burst)
        cached = self._get(key)
        if cached is not None:
            self.stats.waveform_hits += 1
            return cached
        self.stats.waveform_misses += 1
        from repro.core.pipeline import frames_to_waveform  # avoid import cycle

        wave = frames_to_waveform(frames, modem, frames_per_burst=frames_per_burst)
        wave.setflags(write=False)  # shared across broadcasts — keep immutable
        self._put(key, wave)
        return wave

    def burst(
        self,
        payloads: list[bytes],
        modem: "Modem",
        digest: str | None = None,
    ) -> np.ndarray:
        """Modulated audio for one frame burst — the streaming TX unit.

        The carousel rebroadcasts the same pages for hours, so the
        streaming :class:`~repro.core.stream.WaveformSource` sees the
        same payload bursts over and over; caching at burst granularity
        lets repeats skip FEC + OFDM without ever materialising the
        whole broadcast waveform.
        """
        digest = digest if digest is not None else payload_digest(b"".join(payloads))
        profile = modem.profile
        key = ("burst", digest, profile.name, profile.fec, len(payloads))
        cached = self._get(key)
        if cached is not None:
            self.stats.burst_hits += 1
            return cached
        self.stats.burst_misses += 1
        wave = modem.transmit_burst(payloads)
        wave.setflags(write=False)  # shared across broadcasts — keep immutable
        self._put(key, wave)
        return wave


@dataclass
class Transmitter:
    """One FM transmitter participating in SONIC.

    ``station_id`` doubles as the call sign; ``station`` names the
    regional station the transmitter belongs to (a station may operate
    several transmitters — a main mast plus boosters).  It defaults to
    the call sign itself, so a standalone transmitter is its own
    single-member station.
    """

    station_id: str
    location: Location
    frequency_mhz: float
    coverage_km: float
    rate_bps: float = 10_000.0
    cache_capacity: int = 64
    station: str | None = None
    carousel: BroadcastCarousel = field(init=False)
    cache: BroadcastEncodeCache = field(init=False)

    def __post_init__(self) -> None:
        if not 76.0 <= self.frequency_mhz <= 108.0:
            raise ValueError(f"{self.frequency_mhz} MHz outside the FM band")
        if self.coverage_km <= 0:
            raise ValueError("coverage radius must be positive")
        if self.station is None:
            self.station = self.station_id
        self.carousel = BroadcastCarousel(self.rate_bps)
        self.cache = BroadcastEncodeCache(self.cache_capacity)

    def covers(self, where: Location) -> bool:
        return distance_km(self.location, where) <= self.coverage_km

    def broadcast_waveform(
        self,
        item: CarouselItem,
        modem: "Modem",
        frames_per_burst: int = 16,
    ) -> np.ndarray:
        """Modulated audio for one queued item (audio-true simulations).

        Repeat broadcasts of byte-identical content — the common carousel
        case — return the cached waveform without re-running FEC or OFDM;
        :attr:`cache` counters record how often that happens.
        """
        if item.frames is None:
            raise ValueError(f"item {item.url} has no frame payloads")
        if item.digest is None:
            raise ValueError(f"item {item.url} carries no payload digest")
        return self.cache.waveform(
            item.frames, item.digest, modem, frames_per_burst=frames_per_burst
        )


class TransmitterRegistry:
    """Lookup of transmitters by call sign, by station, and by location.

    Both indexes are plain insertion-ordered dicts, so every iteration
    surface (:meth:`all`, :meth:`station_ids`, :meth:`for_station`) is
    deterministic: two registries built from the same ``add`` sequence
    iterate identically, whatever process or hash seed runs them (a
    property test pins this).  Station membership is indexed at ``add``
    time, so routing *within* a station never scans the whole fleet.
    """

    def __init__(self, transmitters: list[Transmitter] | None = None) -> None:
        self._by_id: dict[str, Transmitter] = {}
        self._by_station: dict[str, list[Transmitter]] = {}
        for tx in transmitters or []:
            self.add(tx)

    def add(self, tx: Transmitter) -> None:
        if tx.station_id in self._by_id:
            raise ValueError(f"duplicate call sign {tx.station_id}")
        self._by_id[tx.station_id] = tx
        assert tx.station is not None  # __post_init__ defaults it
        self._by_station.setdefault(tx.station, []).append(tx)

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, station_id: str) -> Transmitter:
        return self._by_id[station_id]

    def all(self) -> list[Transmitter]:
        return list(self._by_id.values())

    def station_ids(self) -> list[str]:
        """Station names, in first-``add`` order."""
        return list(self._by_station)

    def for_station(self, station: str) -> list[Transmitter]:
        """The station's transmitters (indexed — no fleet scan)."""
        return list(self._by_station.get(station, []))

    def covering(self, where: Location) -> Transmitter | None:
        """The nearest transmitter that covers ``where``, if any."""
        return self._nearest_covering(self._by_id.values(), where)

    @staticmethod
    def _nearest_covering(transmitters, where: Location) -> Transmitter | None:
        candidates = [tx for tx in transmitters if tx.covers(where)]
        if not candidates:
            return None
        return min(candidates, key=lambda tx: distance_km(tx.location, where))
