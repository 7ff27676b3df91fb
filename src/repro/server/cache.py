"""The server's page cache: a persistent store of encoded bundles.

"the SONIC server produces a simplified version of the webpage, either
from its cache, e.g., if recently requested by another user, or by
directly accessing it" (Section 3.1).

:class:`BundleStore` is that cache.  It holds *encoded* bundle bytes
under a digest key derived from everything the encode depends on (URL,
content epoch, render geometry, quality, corpus seed), so any request,
hour, process, or simulation run that needs the same page reuses the
bytes instead of re-rendering and re-encoding — the server-side
analogue of the transmitters'
:class:`~repro.server.transmitters.BroadcastEncodeCache`.  A page's
content epoch is part of the key, so a changed page is a new entry and
no entry ever goes stale.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

__all__ = ["BundleStoreStats", "BundleStore", "bundle_key"]


def bundle_key(
    url: str,
    epoch: int,
    width: int,
    max_height: int | None,
    quality: int,
    seed: int,
) -> str:
    """Digest of every input the encoded bundle is a pure function of."""
    blob = f"{url}|{epoch}|{width}|{max_height}|{quality}|{seed}".encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class BundleStoreStats:
    """Hit/miss counters; ``disk_hits`` also count toward ``hits``."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup).

        The share of encodes a shared store saved — e.g. across a
        multi-station network, where the first station to need a page
        encodes it and every other station's lookup lands here.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class BundleStore:
    """LRU memory store of encoded bundles with optional disk persistence.

    ``directory`` (if given) persists every entry as ``<key>.swbp`` so the
    store survives process restarts — warm broadcast-day runs skip the
    whole render+encode pipeline.  Keys come from :func:`bundle_key`.
    """

    def __init__(
        self, capacity: int = 256, directory: str | Path | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self.stats = BundleStoreStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries or (
            self.directory is not None and (self.directory / f"{key}.swbp").exists()
        )

    def get(self, key: str) -> bytes | None:
        data = self._entries.get(key)
        if data is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return data
        if self.directory is not None:
            path = self.directory / f"{key}.swbp"
            if path.exists():
                data = path.read_bytes()
                self._remember(key, data)
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return data
        self.stats.misses += 1
        return None

    def put(self, key: str, data: bytes) -> None:
        self._remember(key, data)
        self.stats.puts += 1
        if self.directory is not None:
            (self.directory / f"{key}.swbp").write_bytes(data)

    def _remember(self, key: str, data: bytes) -> None:
        self._entries[key] = data
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def items(self) -> list[tuple[str, bytes]]:
        """Every (key, bytes) pair in key order, memory and disk alike.

        Reads bypass the LRU and the hit/miss counters so inspecting a
        store never perturbs it.
        """
        keys = set(self._entries)
        if self.directory is not None:
            keys.update(p.stem for p in self.directory.glob("*.swbp"))
        out = []
        for key in sorted(keys):
            data = self._entries.get(key)
            if data is None:
                data = (self.directory / f"{key}.swbp").read_bytes()
            out.append((key, data))
        return out

    def content_digest(self) -> str:
        """SHA-256 over every (key, bytes) pair, in key order.

        LRU recency and hit/miss counters are excluded on purpose: two
        stores hold the same content iff their digests match, regardless
        of the access pattern that filled them.  Disk-persisted entries
        not resident in memory are included so a reopened store compares
        equal to the run that wrote it.
        """
        h = hashlib.sha256()
        for key, data in self.items():
            h.update(key.encode())
            h.update(len(data).to_bytes(8, "big"))
            h.update(data)
        return h.hexdigest()

    def superset_of(self, other: "BundleStore") -> bool:
        """Every bundle in ``other`` is present here, byte-identical.

        The containment check a speculative prefetch must satisfy: it
        may *add* bundles the demand path never asked for, but anything
        the reference run produced has to match exactly.
        """
        for key, data in other.items():
            mine = self._entries.get(key)
            if mine is None and self.directory is not None:
                path = self.directory / f"{key}.swbp"
                if path.exists():
                    mine = path.read_bytes()
            if mine != data:
                return False
        return True
