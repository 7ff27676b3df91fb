"""BundleStore and the pooled catalog pipeline."""

import pytest

from repro.server.cache import BundleStore, bundle_key
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import Location
from repro.sim.workload import BroadcastWorkload, WorkloadConfig
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.web.sites import SiteGenerator

_SMALL = CatalogConfig(seed=42, n_sites=2, width=240, max_height=600, quality=10)


class TestBundleKey:
    def test_deterministic(self):
        a = bundle_key("x.pk/", 3, 360, 1000, 10, 42)
        assert a == bundle_key("x.pk/", 3, 360, 1000, 10, 42)

    def test_sensitive_to_every_input(self):
        base = ("x.pk/", 3, 360, 1000, 10, 42)
        keys = {bundle_key(*base)}
        for i, changed in enumerate(("y.pk/", 4, 480, 2000, 50, 7)):
            args = list(base)
            args[i] = changed
            keys.add(bundle_key(*args))
        assert len(keys) == 7


class TestBundleStore:
    def test_put_get(self):
        store = BundleStore()
        store.put("k1", b"abc")
        assert store.get("k1") == b"abc"
        assert store.get("k2") is None
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1
        assert "k1" in store and "k2" not in store

    def test_lru_eviction(self):
        store = BundleStore(capacity=2)
        store.put("a", b"1")
        store.put("b", b"2")
        store.get("a")  # touch: "b" becomes the eviction victim
        store.put("c", b"3")
        assert store.get("b") is None
        assert store.get("a") == b"1"
        assert store.get("c") == b"3"
        assert len(store) == 2

    def test_disk_persistence_across_instances(self, tmp_path):
        store = BundleStore(directory=tmp_path / "bundles")
        store.put("k1", b"payload")
        assert (tmp_path / "bundles" / "k1.swbp").exists()

        revived = BundleStore(directory=tmp_path / "bundles")
        assert len(revived) == 0  # memory is cold...
        assert revived.get("k1") == b"payload"  # ...but disk is warm
        assert revived.stats.disk_hits == 1
        assert revived.stats.hits == 1
        assert revived.get("k1") == b"payload"  # promoted to memory
        assert revived.stats.disk_hits == 1


class TestCatalogPipeline:
    def test_encode_page_store_roundtrip(self):
        pipeline = CatalogPipeline(_SMALL)
        url = pipeline.generator.all_urls()[0]
        cold = pipeline.encode_page(url)
        warm = pipeline.encode_page(url)
        assert not cold.from_store and warm.from_store
        assert warm.data == cold.data
        assert warm.key == cold.key

    def test_epoch_changes_key(self):
        pipeline = CatalogPipeline(_SMALL)
        url = pipeline.generator.all_urls()[0]
        gen = pipeline.generator
        hours = range(1, 200)
        changed = next(h for h in hours if gen.changed_at(url, h))
        k0, e0 = pipeline.page_key(url, 0)
        k1, e1 = pipeline.page_key(url, changed)
        assert e1 != e0 and k1 != k0

    def test_serial_equals_pooled(self):
        serial = CatalogPipeline(_SMALL).encode_catalog(hour=0)
        with CatalogPipeline(_SMALL).start(2) as pipeline:
            pooled = pipeline.encode_catalog(hour=0)
        assert serial.n_pages == pooled.n_pages == 8
        assert [p.data for p in serial.pages] == [p.data for p in pooled.pages]
        assert serial.store_hits == 0 and pooled.store_hits == 0

    def test_warm_store_skips_encoding(self):
        pipeline = CatalogPipeline(_SMALL)
        cold = pipeline.encode_catalog(hour=0)
        warm = pipeline.encode_catalog(hour=0)
        assert cold.encoded == cold.n_pages
        assert warm.store_hits == warm.n_pages  # nothing re-encoded
        assert warm.encoded == 0
        assert [p.data for p in warm.pages] == [p.data for p in cold.pages]
        assert pipeline.store.stats.hits >= warm.n_pages

    def test_unchanged_pages_reuse_across_hours(self):
        pipeline = CatalogPipeline(_SMALL)
        pipeline.encode_catalog(hour=0)
        later = pipeline.encode_catalog(hour=1)
        unchanged = sum(
            1
            for url in pipeline.generator.all_urls()
            if not pipeline.generator.changed_at(url, 1)
        )
        assert later.store_hits == unchanged


@pytest.fixture()
def catalog_server():
    gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
    generator = SiteGenerator(seed=42, n_sites=2)
    registry = TransmitterRegistry(
        [Transmitter("lhr", Location(31.5204, 74.3587), 93.7, coverage_km=30.0)]
    )
    server = SonicServer(
        generator,
        registry,
        gateway,
        ServerConfig(render_width=240, max_pixel_height=600),
    )
    return registry, server


class TestServerIntegration:
    def test_render_bundle_hits_store(self, catalog_server):
        _, server = catalog_server
        url = server.generator.all_urls()[0]
        first = server.page(url, now=0.0)
        assert not first.from_store
        assert server.stats.renders == 1
        # Same (url, epoch): the second call must come from the store.
        again = server.page(url, now=60.0)
        assert again.from_store
        assert again.data == first.data
        assert server.stats.renders == 1
        assert server.stats.store_hits == 1

    def test_push_catalog_queues_and_announces(self, catalog_server):
        registry, server = catalog_server
        tx = registry.get("lhr")
        result = server.push_catalog(tx, now=0.0, processes=1)
        assert result.n_pages == len(server.generator.all_urls())
        assert server.stats.pushes == result.n_pages
        # Every page plus the catalog announcement item.
        assert tx.carousel.queue_length() == result.n_pages + 1

    def test_push_catalog_warms_render_bundle(self, catalog_server):
        registry, server = catalog_server
        result = server.push_catalog(registry.get("lhr"), now=0.0, processes=1)
        url = server.generator.all_urls()[0]
        page = server.page(url, now=60.0)
        assert server.stats.renders == 0
        assert server.stats.store_hits == 1
        assert page.data == result.pages[0].data


class TestWorkloadWithPipeline:
    def test_measured_sizes_and_store_reuse(self):
        cfg = WorkloadConfig(rate_bps=40_000.0, n_pages=8, n_hours=2, seed=42)
        pipeline = CatalogPipeline(
            CatalogConfig(
                seed=42, n_sites=cfg.n_sites, width=240, max_height=600, quality=10
            )
        )
        result = BroadcastWorkload(cfg).run(pipeline=pipeline)
        # Hour 0 enqueues every page at its measured encoded size.
        sizes = [
            len(pipeline.encode_page(url, 0).data)
            for url in pipeline.generator.all_urls()
        ]
        assert result.enqueued_mb_per_hour[0] == pytest.approx(sum(sizes) / 1e6)

        # A second rate point over the same store re-encodes nothing.
        puts_before = pipeline.store.stats.puts
        again = BroadcastWorkload(
            WorkloadConfig(rate_bps=10_000.0, n_pages=8, n_hours=2, seed=42)
        ).run(pipeline=pipeline)
        assert pipeline.store.stats.puts == puts_before
        assert (again.enqueued_mb_per_hour == result.enqueued_mb_per_hour).all()

    def test_seed_mismatch_rejected(self):
        cfg = WorkloadConfig(n_pages=8, n_hours=1, seed=7)
        pipeline = CatalogPipeline(_SMALL)  # seed 42
        with pytest.raises(ValueError):
            BroadcastWorkload(cfg).run(pipeline=pipeline)
