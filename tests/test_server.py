"""SONIC server: cache, transmitters, scheduler, request handling."""

import pytest

from repro.server.cache import PageCache
from repro.server.scheduler import PopularityScheduler, SchedulerConfig
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import Location
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.sms.message import SmsMessage
from repro.sms.protocol import PageRequest, RequestAck, RequestError, parse_downlink
from repro.transport.bundle import PageBundle
from repro.web.clickmap import ClickMap
from repro.web.sites import SiteGenerator

_LAHORE = Location(31.5204, 74.3587)
_KARACHI = Location(24.8607, 67.0011)


def _bundle(url: str, page_image) -> PageBundle:
    return PageBundle(url, page_image, ClickMap(), expiry_hours=1.0)


class TestPageCache:
    def test_put_get_fresh(self, page_image):
        cache = PageCache(default_ttl_s=100.0)
        cache.put(_bundle("a.pk/", page_image), now=0.0)
        assert cache.get("a.pk/", 50.0) is not None

    def test_ttl_expiry(self, page_image):
        cache = PageCache(default_ttl_s=100.0)
        cache.put(_bundle("a.pk/", page_image), now=0.0)
        assert cache.get("a.pk/", 150.0) is None

    def test_hit_counting(self, page_image):
        cache = PageCache()
        entry = cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.get("a.pk/", 1.0)
        cache.get("a.pk/", 2.0)
        assert entry.hits == 2

    def test_capacity_eviction_oldest(self, page_image):
        cache = PageCache(capacity=2)
        cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.put(_bundle("b.pk/", page_image), 1.0)
        cache.put(_bundle("c.pk/", page_image), 2.0)
        assert cache.get("a.pk/", 3.0) is None
        assert cache.get("c.pk/", 3.0) is not None

    def test_expire_sweep(self, page_image):
        cache = PageCache(default_ttl_s=10.0)
        cache.put(_bundle("a.pk/", page_image), 0.0)
        cache.put(_bundle("b.pk/", page_image), 8.0)
        assert cache.expire(now=15.0) == 1
        assert cache.urls() == ["b.pk/"]


class TestTransmitters:
    def _tx(self, station="lhr", where=_LAHORE, radius=30.0):
        return Transmitter(station, where, 93.7, coverage_km=radius)

    def test_coverage(self):
        tx = self._tx()
        assert tx.covers(Location(31.6, 74.4))
        assert not tx.covers(_KARACHI)

    def test_registry_routing_nearest(self):
        reg = TransmitterRegistry(
            [self._tx("lhr", _LAHORE), self._tx("khi", _KARACHI)]
        )
        assert reg.covering(Location(31.6, 74.4)).station_id == "lhr"
        assert reg.covering(_KARACHI).station_id == "khi"
        assert reg.covering(Location(30.0, 70.0)) is None

    def test_duplicate_station_rejected(self):
        reg = TransmitterRegistry([self._tx()])
        with pytest.raises(ValueError):
            reg.add(self._tx())

    def test_fm_band_validated(self):
        with pytest.raises(ValueError):
            Transmitter("x", _LAHORE, 50.0, coverage_km=10)


class TestScheduler:
    def test_hour_zero_seeds_catalog(self, site_generator):
        sched = PopularityScheduler(site_generator)
        pushes = sched.pages_to_push(0)
        assert len(pushes) == 100

    def test_later_hours_only_changed_plus_refresh(self, site_generator):
        sched = PopularityScheduler(
            site_generator, SchedulerConfig(refresh_top_n=2)
        )
        pushes = sched.pages_to_push(5)
        urls = [u for u, _ in pushes]
        changed = [
            u for u in site_generator.all_urls() if site_generator.changed_at(u, 5)
        ]
        assert set(changed) <= set(urls)
        assert len(urls) <= len(changed) + 2

    def test_morning_news_boost(self, site_generator):
        sched = PopularityScheduler(site_generator)
        news = [s for s in site_generator.websites() if s.category == "news"]
        if not news:
            pytest.skip("no news site in this corpus seed")
        url = news[0].landing_url
        assert sched.page_priority(url, 7) > sched.page_priority(url, 13)

    def test_priorities_follow_rank(self, site_generator):
        sched = PopularityScheduler(site_generator)
        top = site_generator.websites()[0].landing_url
        bottom = site_generator.websites()[-1].landing_url
        assert sched.page_priority(top, 12) > sched.page_priority(bottom, 12)


@pytest.fixture()
def server_env():
    gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
    generator = SiteGenerator(seed=2, n_sites=2)
    registry = TransmitterRegistry(
        [Transmitter("lhr", _LAHORE, 93.7, coverage_km=30.0)]
    )
    server = SonicServer(
        generator,
        registry,
        gateway,
        ServerConfig(render_width=360, max_pixel_height=1_000),
    )
    return gateway, generator, registry, server


class TestSonicServer:
    def _request(self, gateway, server, url, now=0.0, where=_LAHORE):
        req = PageRequest(url, where.lat, where.lon)
        gateway.submit(SmsMessage("+92300123", server.config.sms_number, req.to_text()), now)
        gateway.deliver_due(now + 60.0)

    def test_request_ack_with_eta(self, server_env):
        gateway, generator, registry, server = server_env
        url = generator.all_urls()[0]
        self._request(gateway, server, url)
        replies = gateway.deliver_due(600.0)
        assert len(replies) == 1
        ack = parse_downlink(replies[0].text)
        assert isinstance(ack, RequestAck)
        assert ack.url == url
        assert ack.eta_seconds > 0
        assert registry.get("lhr").carousel.queue_length() == 1

    def test_no_coverage_rejected(self, server_env):
        gateway, generator, _, server = server_env
        self._request(gateway, server, generator.all_urls()[0], where=_KARACHI)
        replies = gateway.deliver_due(600.0)
        err = parse_downlink(replies[0].text)
        assert isinstance(err, RequestError)
        assert err.reason == "no-coverage"

    def test_auth_pages_unsupported(self, server_env):
        gateway, generator, _, server = server_env
        domain = generator.websites()[0].domain
        self._request(gateway, server, f"{domain}/login")
        err = parse_downlink(gateway.deliver_due(600.0)[0].text)
        assert isinstance(err, RequestError)
        assert "auth" in err.reason

    def test_unknown_site_rejected(self, server_env):
        gateway, _, _, server = server_env
        self._request(gateway, server, "nonexistent.pk/")
        err = parse_downlink(gateway.deliver_due(600.0)[0].text)
        assert isinstance(err, RequestError)

    def test_cache_hit_on_repeat_request(self, server_env):
        gateway, generator, _, server = server_env
        url = generator.all_urls()[0]
        self._request(gateway, server, url, now=0.0)
        gateway.deliver_due(600.0)
        renders_before = server.stats.renders
        self._request(gateway, server, url, now=700.0)
        gateway.deliver_due(1_300.0)
        assert server.stats.renders == renders_before
        assert server.stats.cache_hits >= 1

    def test_search_builds_results_page(self, server_env):
        gateway, _, registry, server = server_env
        gateway.submit(
            SmsMessage(
                "+92300123",
                server.config.sms_number,
                f"FIND cricket LOC {_LAHORE.lat},{_LAHORE.lon}",
            ),
            0.0,
        )
        gateway.deliver_due(60.0)
        replies = gateway.deliver_due(600.0)
        ack = parse_downlink(replies[0].text)
        assert isinstance(ack, RequestAck)
        assert ack.url.startswith("sonic.search/")
        assert server.stats.searches == 1

    def test_hourly_push_renders_and_queues(self, server_env):
        _, generator, registry, server = server_env
        pushed = server.hourly_push(0.0)
        assert pushed == len(generator.all_urls())
        assert registry.get("lhr").carousel.queue_length() == pushed

    def test_page_ids_stable(self, server_env):
        *_, server = server_env
        a = server.page_id("x.pk/")
        b = server.page_id("y.pk/")
        assert a != b
        assert server.page_id("x.pk/") == a


class TestBatchedRequests:
    """A burst of requests through ``handle_page_request``, one at a time."""

    @staticmethod
    def _serve(gateway, server, requests, now=0.0):
        """Each sender's reply, parsed, in request order."""
        inbox = {}
        for request, sender in requests:
            gateway.register(
                sender, lambda m, t: inbox.setdefault(m.recipient, []).append(m.text)
            )
            server.handle_page_request(request, sender, now)
        gateway.deliver_due(now + 600.0)
        return [parse_downlink(inbox[sender].pop(0)) for _, sender in requests]

    def test_batch_matches_serial_acks(self, server_env):
        gateway, generator, registry, server = server_env
        urls = generator.all_urls()[:3]
        # Hot page: three users want urls[0], one wants urls[1].
        batch = [
            (PageRequest(urls[0], _LAHORE.lat, _LAHORE.lon), f"+9230{i}")
            for i in range(3)
        ] + [(PageRequest(urls[1], _LAHORE.lat, _LAHORE.lon), "+92309")]
        renders_before = server.stats.renders
        acks = self._serve(gateway, server, batch)
        assert len(acks) == 4
        assert all(isinstance(a, RequestAck) for a in acks)
        assert [a.url for a in acks] == [urls[0]] * 3 + [urls[1]]
        # N requests for the hot page cost one render each unique page.
        assert server.stats.renders - renders_before == 2
        # One carousel transmission per unique page, not per request.
        tx = registry.covering(_LAHORE)
        assert tx.carousel.queue_length() == 2

    def test_batch_routes_errors_individually(self, server_env):
        gateway, generator, registry, server = server_env
        url = generator.all_urls()[0]
        batch = [
            (PageRequest(url, _LAHORE.lat, _LAHORE.lon), "+92301"),
            (PageRequest("bank.pk/login", _LAHORE.lat, _LAHORE.lon), "+92302"),
            (PageRequest(url, _KARACHI.lat, _KARACHI.lon), "+92303"),
            (PageRequest("nowhere.pk/", _LAHORE.lat, _LAHORE.lon), "+92304"),
        ]
        replies = self._serve(gateway, server, batch)
        assert isinstance(replies[0], RequestAck)
        assert isinstance(replies[1], RequestError)
        assert replies[1].reason == "unsupported-auth"
        assert isinstance(replies[2], RequestError)
        assert replies[2].reason == "no-coverage"
        assert isinstance(replies[3], RequestError)
        assert replies[3].reason == "unknown-site"

    def test_batch_replies_reach_senders(self, server_env):
        gateway, generator, registry, server = server_env
        url = generator.all_urls()[0]
        inbox = []
        gateway.register("+92305", lambda m, now: inbox.append(m.text))
        server.handle_page_request(
            PageRequest(url, _LAHORE.lat, _LAHORE.lon), "+92305", now=0.0
        )
        gateway.deliver_due(120.0)
        assert len(inbox) == 1
        assert isinstance(parse_downlink(inbox[0]), RequestAck)
