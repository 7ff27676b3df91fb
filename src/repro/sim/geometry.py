"""Locations and coverage geometry.

Requests carry the user's position so the server can pick the FM
transmitter whose coverage disc contains them (Section 3.1).  A simple
local equirectangular approximation is plenty at city scale.

For the population-scale fleet, :class:`PopulationGeometry` scatters N
listeners uniformly over a transmitter's coverage disc.  The draws come
from counter streams (``repro.util.rng.counter_uniforms``), so any
slice of the population — a chunk, a worker's shard — lands on exactly
the same coordinates as a monolithic run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.rng import counter_uniforms

__all__ = [
    "Location",
    "distance_km",
    "haversine_km",
    "PopulationGeometry",
    "RegionPartition",
]

_EARTH_RADIUS_KM = 6_371.0


@dataclass(frozen=True)
class Location:
    """A point on Earth (degrees)."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90 <= self.lat <= 90 or not -180 <= self.lon <= 180:
            raise ValueError(f"bad coordinates ({self.lat}, {self.lon})")


def distance_km(a: Location, b: Location) -> float:
    """Great-circle distance via the haversine formula.

    >>> lahore = Location(31.5204, 74.3587)
    >>> islamabad = Location(33.6844, 73.0479)
    >>> 260 < distance_km(lahore, islamabad) < 280
    True
    """
    return float(haversine_km(a.lat, a.lon, b.lat, b.lon))


def haversine_km(lat1, lon1, lat2, lon2):
    """Vectorised haversine distance (degrees in, kilometres out).

    Accepts scalars or numpy arrays on either side; broadcasting rules
    apply, so one transmitter against a whole population is a single
    call.
    """
    phi1 = np.radians(np.asarray(lat1, dtype=np.float64))
    phi2 = np.radians(np.asarray(lat2, dtype=np.float64))
    dphi = phi2 - phi1
    dlambda = np.radians(
        np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)
    )
    h = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi1) * np.cos(phi2) * np.sin(dlambda / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


@dataclass(frozen=True)
class PopulationGeometry:
    """N listeners scattered uniformly over a coverage disc.

    Defaults centre on Lahore (the paper's .pk corpus context) with a
    1 km radius — the rated range of the TR508-class transmitter, which
    spans the full −65…−95 dB RSSI band of the Variable-RSSI experiment.
    """

    center: Location = Location(31.5204, 74.3587)
    radius_km: float = 1.0
    # Receivers closer than this are clamped: inside a couple of metres
    # the log-distance model is meaningless (near-field, same room).
    min_distance_m: float = 2.0

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError("coverage radius must be positive")
        if self.min_distance_m < 0:
            raise ValueError("min_distance_m must be >= 0")

    def sample_offsets_km(
        self, key: int, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(east_km, north_km) of receivers ``indices`` from the centre.

        Uniform over the disc: radius grows as sqrt(u) so area density
        is flat.  Draw ``2 * i`` feeds receiver ``i``'s radius and
        ``2 * i + 1`` its bearing — absolute counters, so any partition
        of the population reproduces identical positions.
        """
        idx = np.asarray(indices, dtype=np.uint64)
        with np.errstate(over="ignore"):
            u_r = counter_uniforms(key, idx * np.uint64(2))
            u_t = counter_uniforms(key, idx * np.uint64(2) + np.uint64(1))
        r = self.radius_km * np.sqrt(u_r)
        theta = 2.0 * np.pi * u_t
        return r * np.sin(theta), r * np.cos(theta)

    def sample_locations(
        self, key: int, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lat_deg, lon_deg) arrays for receivers ``indices``."""
        east_km, north_km = self.sample_offsets_km(key, indices)
        lat0 = math.radians(self.center.lat)
        dlat = np.degrees(north_km / _EARTH_RADIUS_KM)
        dlon = np.degrees(east_km / (_EARTH_RADIUS_KM * math.cos(lat0)))
        return self.center.lat + dlat, self.center.lon + dlon

    def sample_distances_m(self, key: int, indices: np.ndarray) -> np.ndarray:
        """Transmitter distance (metres) for receivers ``indices``.

        Goes the long way round — offsets to coordinates to haversine —
        so the positions the request path sees (``Location``) and the
        distances the propagation model sees cannot drift apart.
        """
        lats, lons = self.sample_locations(key, indices)
        d_m = 1000.0 * haversine_km(self.center.lat, self.center.lon, lats, lons)
        return np.maximum(d_m, self.min_distance_m)


@dataclass(frozen=True)
class RegionPartition:
    """Nearest-station partition of a geography.

    Carves a listener population (or any set of coordinates) into the
    catchment of the nearest station in a multi-transmitter fleet, so
    Tier-2 population results can be reported per station.  Assignment
    is a pure function of the coordinates — no RNG, no tie-break state:
    exact equidistance resolves to the lower station index.
    """

    names: tuple[str, ...]
    centers: tuple[Location, ...]

    def __post_init__(self) -> None:
        if not self.names or len(self.names) != len(self.centers):
            raise ValueError("need one name per station center")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate station names")

    def __len__(self) -> int:
        return len(self.names)

    def assign(self, lats, lons) -> np.ndarray:
        """Index of the nearest station for each (lat, lon) pair."""
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        d = np.stack(
            [haversine_km(c.lat, c.lon, lats, lons) for c in self.centers]
        )
        return np.argmin(d, axis=0)

    def nearest(self, where: Location) -> str:
        """Name of the station whose mast is closest to ``where``."""
        idx = int(self.assign(np.array([where.lat]), np.array([where.lon]))[0])
        return self.names[idx]
