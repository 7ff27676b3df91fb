"""Catalog announcements (the broadcast programme guide)."""

import pytest

from repro.transport.framing import FrameType
from repro.transport.metadata import (
    CATALOG_PAGE_ID,
    CatalogAnnouncement,
    CatalogEntryInfo,
)


def _announcement(n: int = 3) -> CatalogAnnouncement:
    entries = [
        CatalogEntryInfo(f"site{i}.pk/", i, i % 4, 100_000 + i, 30.0 * i)
        for i in range(n)
    ]
    return CatalogAnnouncement("lahore-93.7", entries)


class TestSerialization:
    def test_roundtrip(self):
        a = _announcement()
        restored = CatalogAnnouncement.from_bytes(a.to_bytes())
        assert restored.station_id == "lahore-93.7"
        assert restored.entries == a.entries

    def test_empty_catalog(self):
        a = CatalogAnnouncement("x", [])
        assert CatalogAnnouncement.from_bytes(a.to_bytes()).entries == []

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            CatalogAnnouncement.from_bytes(b"XXXX" + bytes(10))

    def test_truncation_rejected(self):
        data = _announcement().to_bytes()
        with pytest.raises(ValueError):
            CatalogAnnouncement.from_bytes(data[: len(data) - 4])

    def test_url_length_validated(self):
        with pytest.raises(ValueError):
            CatalogEntryInfo("x" * 300, 0, 0, 1, 0.0)


class TestFraming:
    def test_frames_typed_and_addressed(self):
        frames = _announcement(40).to_frames()
        assert len(frames) >= 2  # large catalog spans frames
        for f in frames:
            assert f.header.frame_type == FrameType.METADATA
            assert f.header.page_id == CATALOG_PAGE_ID

    def test_reassembly(self):
        a = _announcement(40)
        frames = a.to_frames()
        restored = CatalogAnnouncement.from_frames(frames[::-1])
        assert restored is not None
        assert restored.entries == a.entries

    def test_incomplete_returns_none(self):
        frames = _announcement(40).to_frames()
        assert CatalogAnnouncement.from_frames(frames[:-1]) is None
        assert CatalogAnnouncement.from_frames([]) is None


class TestClientIngestion:
    def test_upcoming_view(self, page_image):
        from repro.client.client import ClientProfile, SonicClient
        from repro.sim.geometry import Location

        client = SonicClient(
            ClientProfile("u", Location(31.5, 74.3), connection="cable")
        )
        frames = _announcement(5).to_frames()
        client.on_frames(list(frames), now=1.0)
        assert len(client.upcoming) == 5
        assert "site2.pk/" in client.upcoming
        assert client.upcoming["site2.pk/"].size_bytes == 100_002

    def test_delivery_clears_upcoming(self, page_image):
        from repro.client.client import ClientProfile, SonicClient
        from repro.sim.geometry import Location
        from repro.transport.bundle import BundleTransport, PageBundle
        from repro.web.clickmap import ClickMap

        client = SonicClient(
            ClientProfile("u", Location(31.5, 74.3), connection="cable")
        )
        announcement = CatalogAnnouncement(
            "s", [CatalogEntryInfo("a.pk/", 4, 0, 10, 5.0)]
        )
        client.on_frames(list(announcement.to_frames()), now=1.0)
        assert "a.pk/" in client.upcoming
        bundle = PageBundle("a.pk/", page_image, ClickMap())
        client.on_frames(
            BundleTransport().chunk(bundle.to_bytes(), page_id=4), now=2.0
        )
        assert "a.pk/" not in client.upcoming
        assert "a.pk/" in client.cache


    def test_one_batch_keeps_air_order(self, page_image):
        """Within one batch, an announcement followed by its page leaves
        nothing upcoming; the page followed by a new announcement of it
        lists it again."""
        from repro.client.client import ClientProfile, SonicClient
        from repro.sim.geometry import Location
        from repro.transport.bundle import BundleTransport, PageBundle
        from repro.web.clickmap import ClickMap

        announcement = CatalogAnnouncement(
            "s", [CatalogEntryInfo("a.pk/", 4, 0, 10, 5.0)]
        )
        page = BundleTransport().chunk(
            PageBundle("a.pk/", page_image, ClickMap()).to_bytes(), page_id=4
        )
        client = SonicClient(ClientProfile("u", Location(31.5, 74.3)))
        client.on_frames(list(announcement.to_frames()) + page, now=1.0)
        assert "a.pk/" in client.cache
        assert "a.pk/" not in client.upcoming
        client = SonicClient(ClientProfile("u", Location(31.5, 74.3)))
        client.on_frames(page + list(announcement.to_frames()), now=1.0)
        assert "a.pk/" in client.cache
        assert "a.pk/" in client.upcoming


class TestServerBroadcast:
    def test_server_announces_queue(self):
        from repro.core.config import SystemConfig
        from repro.core.system import SonicSystem

        system = SonicSystem(
            SystemConfig(n_sites=2, render_width=360, max_pixel_height=800)
        )
        tx = system.registry.all()[0]
        count = system.server.broadcast_catalog(tx, system.clock.now)
        assert count > 0
        system.run(seconds=120, step_s=5)
        client = system.client("user-b")
        # The announcement outranks page traffic, so the upcoming view
        # fills before the catalog itself is fully delivered.
        assert client.upcoming or len(client.cache.urls()) > 0
