"""The client app's catalog view.

"the app shows a catalog of available webpages, organized by content,
popularity, and/or user interest" (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.cache import ClientCache

__all__ = ["CatalogEntry", "Catalog"]


@dataclass(frozen=True)
class CatalogEntry:
    """One row of the catalog screen."""

    url: str
    domain: str
    received_at: float
    view_count: int


class Catalog:
    """Organises cached pages for browsing."""

    def __init__(self, cache: ClientCache) -> None:
        self._cache = cache
        self._views: dict[str, int] = {}

    def record_view(self, url: str) -> None:
        self._views[url] = self._views.get(url, 0) + 1

    def entries(self, now: float) -> list[CatalogEntry]:
        self._cache.expire(now)
        out = []
        for url in self._cache.urls():
            out.append(
                CatalogEntry(
                    url=url,
                    domain=url.partition("/")[0],
                    received_at=self._cache.received_at(url) or 0.0,
                    view_count=self._views.get(url, 0),
                )
            )
        return out

    def by_domain(self, now: float) -> dict[str, list[CatalogEntry]]:
        """Catalog grouped by site ("organized by content")."""
        grouped: dict[str, list[CatalogEntry]] = {}
        for entry in self.entries(now):
            grouped.setdefault(entry.domain, []).append(entry)
        return grouped

    def by_popularity(self, now: float) -> list[CatalogEntry]:
        """Most-viewed pages first ("organized by popularity")."""
        return sorted(
            self.entries(now), key=lambda e: (-e.view_count, -e.received_at)
        )
