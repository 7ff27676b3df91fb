"""SONIC's SMS request/response protocol.

Uplink (client -> server), one segment each:

* ``GET <url> LOC <lat>,<lon>`` — request a page.  The location lets the
  server pick the FM transmitter that covers the user (Section 3.1).
* ``FIND <query> LOC <lat>,<lon>`` — a search-engine query.
* ``RPT <profile> SNR <db> LOSS <lost>/<frames>`` — receiver feedback:
  decode outcome of the last burst under the named modem profile, at the
  audio SNR the client estimated.  Feeds the server's adaptive profile
  selection (the SMS uplink is SONIC's only return channel).

Downlink (server -> client):

* ``ACK <url> ETA <seconds>`` — request accepted, delivery estimate.
* ``ERR <url> <reason>`` — request rejected.
* ``USE <profile>`` — profile advice: decode the next bursts with this
  modem profile (the server switched because of link feedback).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PageRequest",
    "SearchRequest",
    "LinkReport",
    "RequestAck",
    "RequestError",
    "ProfileAdvice",
    "parse_uplink",
    "parse_downlink",
]


@dataclass(frozen=True)
class PageRequest:
    """GET: fetch (or reuse from cache) and broadcast a page."""

    url: str
    lat: float
    lon: float

    def to_text(self) -> str:
        return f"GET {self.url} LOC {self.lat:.4f},{self.lon:.4f}"


@dataclass(frozen=True)
class SearchRequest:
    """FIND: run a search query and broadcast the result page."""

    query: str
    lat: float
    lon: float

    def to_text(self) -> str:
        return f"FIND {self.query} LOC {self.lat:.4f},{self.lon:.4f}"


@dataclass(frozen=True)
class LinkReport:
    """RPT: one receiver's decode outcome under a profile at an SNR."""

    profile: str
    snr_db: float
    n_lost: int
    n_frames: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_lost <= self.n_frames or self.n_frames <= 0:
            raise ValueError("need 0 <= n_lost <= n_frames, n_frames > 0")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"SNR must be finite, got {self.snr_db}")

    def to_text(self) -> str:
        return (
            f"RPT {self.profile} SNR {self.snr_db:.1f} "
            f"LOSS {self.n_lost}/{self.n_frames}"
        )


@dataclass(frozen=True)
class RequestAck:
    """ACK: the server's promise, with an airtime estimate."""

    url: str
    eta_seconds: float

    def to_text(self) -> str:
        return f"ACK {self.url} ETA {self.eta_seconds:.0f}"


@dataclass(frozen=True)
class RequestError:
    """ERR: the server declined (unsupported page, no coverage, ...)."""

    url: str
    reason: str

    def to_text(self) -> str:
        return f"ERR {self.url} {self.reason}"


@dataclass(frozen=True)
class ProfileAdvice:
    """USE: the server's pick for the client's next bursts."""

    profile: str

    def to_text(self) -> str:
        return f"USE {self.profile}"


def _parse_loc(parts: list[str]) -> tuple[float, float]:
    if len(parts) != 2 or parts[0] != "LOC":
        raise ValueError("missing LOC clause")
    lat_s, _, lon_s = parts[1].partition(",")
    return float(lat_s), float(lon_s)


def parse_uplink(text: str) -> PageRequest | SearchRequest | LinkReport:
    """Parse a client-originated message; raises ``ValueError`` if malformed."""
    tokens = text.strip().split(" ")
    if (
        len(tokens) == 6
        and tokens[0] == "RPT"
        and tokens[2] == "SNR"
        and tokens[4] == "LOSS"
    ):
        lost_s, sep, frames_s = tokens[5].partition("/")
        if not sep:
            raise ValueError(f"malformed LOSS clause: {text!r}")
        return LinkReport(
            profile=tokens[1],
            snr_db=float(tokens[3]),
            n_lost=int(lost_s),
            n_frames=int(frames_s),
        )
    if len(tokens) >= 4 and tokens[0] == "GET":
        lat, lon = _parse_loc(tokens[-2:])
        url = " ".join(tokens[1:-2])
        if not url or " " in url:
            raise ValueError(f"malformed URL in request: {text!r}")
        return PageRequest(url, lat, lon)
    if len(tokens) >= 4 and tokens[0] == "FIND":
        lat, lon = _parse_loc(tokens[-2:])
        query = " ".join(tokens[1:-2])
        if not query:
            raise ValueError("empty search query")
        return SearchRequest(query, lat, lon)
    raise ValueError(f"unrecognised uplink message: {text!r}")


def parse_downlink(text: str) -> RequestAck | RequestError | ProfileAdvice:
    """Parse a server-originated message."""
    tokens = text.strip().split(" ")
    if len(tokens) == 4 and tokens[0] == "ACK" and tokens[2] == "ETA":
        return RequestAck(tokens[1], float(tokens[3]))
    if len(tokens) == 2 and tokens[0] == "USE":
        return ProfileAdvice(tokens[1])
    if len(tokens) >= 3 and tokens[0] == "ERR":
        return RequestError(tokens[1], " ".join(tokens[2:]))
    raise ValueError(f"unrecognised downlink message: {text!r}")
