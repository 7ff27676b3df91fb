"""SONIC client: cache, catalog, browser, frame ingestion, uplink."""

from dataclasses import replace

import numpy as np
import pytest

from repro.client.browser import Browser, ClickOutcome
from repro.client.cache import ClientCache
from repro.client.catalog import Catalog
from repro.client.client import ClientProfile, SonicClient
from repro.sim.geometry import Location
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.sms.protocol import parse_uplink, PageRequest
from repro.transport.bundle import BundleTransport, PageBundle
from repro.transport.framing import Frame
from repro.web.clickmap import ClickMap, ClickRegion

_LAHORE = Location(31.5204, 74.3587)


def _bundle(url, page_image, hrefs=(), expiry_hours=2.0):
    cm = ClickMap(
        [ClickRegion(10, 10 + 40 * i, 80, 30, href) for i, href in enumerate(hrefs)]
    )
    return PageBundle(url, page_image, cm, expiry_hours=expiry_hours)


class TestClientCache:
    def test_expiry_honours_server_ttl(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, expiry_hours=1.0), now=0.0)
        assert cache.get("a.pk/", 1_800.0) is not None
        assert cache.get("a.pk/", 4_000.0) is None

    def test_capacity_eviction(self, page_image):
        cache = ClientCache(capacity=2)
        for i, t in enumerate((0.0, 1.0, 2.0)):
            cache.put(_bundle(f"s{i}.pk/", page_image), now=t)
        assert "s0.pk/" not in cache
        assert "s2.pk/" in cache


class TestCatalog:
    def test_groups_by_domain(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.put(_bundle("a.pk/story", page_image), 1.0)
        cache.put(_bundle("b.pk/", page_image), 2.0)
        catalog = Catalog(cache)
        grouped = catalog.by_domain(10.0)
        assert len(grouped["a.pk"]) == 2
        assert len(grouped["b.pk"]) == 1

    def test_popularity_ordering(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.put(_bundle("b.pk/", page_image), 0.0)
        catalog = Catalog(cache)
        for _ in range(3):
            catalog.record_view("b.pk/")
        assert catalog.by_popularity(1.0)[0].url == "b.pk/"

    def test_expired_pages_vanish(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, expiry_hours=0.5), 0.0)
        catalog = Catalog(cache)
        assert catalog.entries(10.0)
        assert catalog.entries(3_600.0) == []


class TestBrowser:
    def test_open_and_history(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image), 0.0)
        browser = Browser(cache)
        assert browser.open("a.pk/", 1.0).url == "a.pk/"
        assert browser.history == ["a.pk/"]
        assert browser.open("missing.pk/", 1.0) is None

    def test_click_cache_hit(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, hrefs=("a.pk/next",)), 0.0)
        cache.put(_bundle("a.pk/next", page_image), 0.0)
        browser = Browser(cache)
        browser.open("a.pk/", 1.0)
        result = browser.click(15, 15, 1.0)
        assert result.outcome == ClickOutcome.CACHE_HIT
        assert browser.current.url == "a.pk/next"

    def test_click_needs_uplink(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, hrefs=("a.pk/missing",)), 0.0)
        browser = Browser(cache)
        browser.open("a.pk/", 1.0)
        result = browser.click(15, 15, 1.0)
        assert result.outcome == ClickOutcome.NEEDS_UPLINK
        assert result.href == "a.pk/missing"

    def test_click_outside_regions(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, hrefs=("a.pk/x",)), 0.0)
        browser = Browser(cache)
        browser.open("a.pk/", 1.0)
        assert browser.click(400, 400, 1.0).outcome == ClickOutcome.NO_TARGET

    def test_scale_factor_translates_taps(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image, hrefs=("a.pk/t",)), 0.0)
        cache.put(_bundle("a.pk/t", page_image), 0.0)
        browser = Browser(cache, scale_factor=1 / 3)
        browser.open("a.pk/", 1.0)
        # Region is at (10..90, 10..40) in source coords -> (3..30, 3..13) on device.
        assert browser.click(5, 5, 1.0).outcome == ClickOutcome.CACHE_HIT

    def test_back_navigation(self, page_image):
        cache = ClientCache()
        cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.put(_bundle("b.pk/", page_image), 0.0)
        browser = Browser(cache)
        browser.open("a.pk/", 1.0)
        browser.open("b.pk/", 2.0)
        assert browser.back(3.0).url == "a.pk/"


class TestSonicClient:
    def _profiles(self):
        return {
            "a": ClientProfile("user-a", _LAHORE, connection="air", distance_m=1.0),
            "c": ClientProfile(
                "user-c", _LAHORE, has_sms=True, phone_number="+92300999"
            ),
        }

    def test_frame_ingestion_completes_bundle(self, page_image):
        client = SonicClient(self._profiles()["a"])
        bundle = _bundle("a.pk/", page_image)
        frames = BundleTransport().chunk(bundle.to_bytes(), page_id=4)
        done = client.on_frames(frames, now=10.0)
        assert [b.url for b in done] == ["a.pk/"]
        assert "a.pk/" in client.cache

    def test_gaps_fill_across_cycles(self, page_image):
        client = SonicClient(self._profiles()["a"])
        bundle = _bundle("a.pk/", page_image)
        frames = BundleTransport().chunk(bundle.to_bytes(), page_id=4)
        lossy = [f if i % 7 else None for i, f in enumerate(frames)]
        assert client.on_frames(lossy, 1.0) == []
        assert 0 < client.reception_progress(4) < 1
        done = client.on_frames(frames, 2.0)  # second carousel cycle
        assert len(done) == 1
        assert client.frames_lost > 0

    def test_version_mixing_prevented(self, page_image):
        client = SonicClient(self._profiles()["a"])
        v1 = BundleTransport().chunk(
            _bundle("a.pk/", page_image).to_bytes(), page_id=4, version=1
        )
        dark = (page_image // 2).astype(np.uint8)
        v2 = BundleTransport().chunk(
            _bundle("a.pk/", dark).to_bytes(), page_id=4, version=2
        )
        # Half of v1 then all of v2: v2 must complete cleanly.
        client.on_frames(v1[: len(v1) // 2], 1.0)
        done = client.on_frames(v2, 2.0)
        assert len(done) == 1

    def test_non_bundle_payload_is_counted_and_dropped(self):
        """A blob that reassembles but is not a bundle is dropped, not
        raised: the assembler counts it in ``pages_raw``."""
        client = SonicClient(self._profiles()["a"])
        frames = BundleTransport().chunk(b"not a bundle at all", page_id=7)
        assert client.on_frames(frames, 0.0) == []
        assert len(client.cache) == 0
        assert client._assembler.pages_raw == 1
        assert client.reception_progress(7) == 0.0

    def test_undecodable_bundle_is_counted_and_dropped(self, mixed_bundle_frames):
        """Frames of two bundles with equal totals under one version
        reassemble into a blob with bundle magic and a damaged image:
        nothing is cached and the assembler counts it in ``pages_raw``."""
        client = SonicClient(self._profiles()["a"])
        assert client.on_frames(mixed_bundle_frames, 0.0) == []
        assert len(client.cache) == 0
        assert client._assembler.pages_raw == 1

    def test_conflicting_total_counts_as_lost(self, page_image):
        """A CRC-valid frame whose ``total`` disagrees with the frames
        held for its version counts as lost; the held frames stay."""
        client = SonicClient(self._profiles()["a"])
        bundle = _bundle("a.pk/", page_image)
        frames = BundleTransport().chunk(bundle.to_bytes(), page_id=4)
        assert len(frames) >= 3
        liar = Frame(replace(frames[1].header, total=2), frames[1].payload)
        assert client.on_frames([frames[0], liar], 1.0) == []
        assert client.frames_lost == 1
        assert client.reception_progress(4) == 1 / len(frames)
        done = client.on_frames(frames[1:], 2.0)
        assert [b.url for b in done] == ["a.pk/"]
        assert client.frames_seen == 1 + len(frames)

    def test_request_requires_sms(self, page_image):
        profiles = self._profiles()
        no_sms = SonicClient(profiles["a"])
        assert not no_sms.request_page("a.pk/", 0.0)

    def test_request_sends_get_with_location(self):
        gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=0)
        client = SonicClient(
            self._profiles()["c"], gateway=gateway, server_number="+92300000"
        )
        assert client.request_page("dawn.pk/", 0.0)
        [msg] = gateway.deliver_due(600.0)
        req = parse_uplink(msg.text)
        assert isinstance(req, PageRequest)
        assert req.url == "dawn.pk/"
        assert req.lat == pytest.approx(_LAHORE.lat, abs=1e-3)
        assert "dawn.pk/" in client.pending_requests

    def test_search_sends_find(self):
        from repro.sms.protocol import SearchRequest

        gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
        client = SonicClient(
            self._profiles()["c"], gateway=gateway, server_number="+92300000"
        )
        assert client.search("cricket score", 0.0)
        [msg] = gateway.deliver_due(600.0)
        req = parse_uplink(msg.text)
        assert isinstance(req, SearchRequest)
        assert req.query == "cricket score"

    def test_search_requires_sms(self):
        client = SonicClient(self._profiles()["a"])
        assert not client.search("anything", 0.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ClientProfile("x", _LAHORE, connection="wifi")
        with pytest.raises(ValueError):
            ClientProfile("x", _LAHORE, has_sms=True)  # no number

    def test_scale_factor(self):
        profile = ClientProfile("x", _LAHORE, screen_width=360)
        assert profile.scale_factor == pytest.approx(1 / 3)
