"""Render pool, render-ahead resolve, and speculative prefetch.

Every worker count — one in-process worker, a subprocess pool, a
one-worker pool replaced by a larger one — and any batch size must
produce bit-identical bundles and ledgers.  These tests pin that
contract end to end.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.frontend import CatalogResolver, FrontendConfig, RequestFrontend
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import Transmitter, TransmitterRegistry
from repro.sim.geometry import Location
from repro.sim.workload import RequestTrace, RequestTraceConfig, generate_requests
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.web.sites import SiteGenerator

_SMALL = CatalogConfig(seed=42, n_sites=2, width=240, max_height=600, quality=10)


def _pipeline() -> CatalogPipeline:
    return CatalogPipeline(_SMALL, store=BundleStore())


class TestPersistentPool:
    def test_all_pool_modes_byte_identical(self):
        serial = _pipeline()
        serial.encode_catalog(hour=1)

        with _pipeline().start(2) as subproc:
            subproc.encode_catalog(hour=1)

        with _pipeline().start(1) as inline:
            inline.encode_catalog(hour=1)

        # One in-process use opens a one-worker pool; start(2) replaces
        # it, and a job submitted before still commits its deferred renders.
        with _pipeline() as grown:
            early = grown.submit_catalog(grown.generator.all_urls()[:2], hour=1)
            grown.start(2).encode_catalog(hour=1)
            assert grown._pool.processes == 2
            assert early.result().encoded == 2

        expect = serial.store.content_digest()
        assert subproc.store.content_digest() == expect
        assert inline.store.content_digest() == expect
        assert grown.store.content_digest() == expect

    def test_start_resolves_single_worker_inline(self):
        pipeline = _pipeline().start(1)
        job = pipeline.submit_catalog(pipeline.generator.all_urls()[:1], hour=0)
        assert job.result().encoded == 1
        # One worker renders in this process: no child was ever started.
        assert multiprocessing.active_children() == []
        pipeline.close()

    def test_start_idempotent(self):
        pipeline = _pipeline().start(2)
        pool = pipeline._pool
        assert pipeline.start(4)._pool is pool  # already started: no-op
        pipeline.close()
        # An open one-worker pool is replaced when more are asked for.
        pipeline = _pipeline().start(1)
        assert pipeline.start(2)._pool.processes == 2
        pipeline.close()

    def test_persistent_pool_reused_across_hours(self):
        with _pipeline().start(1) as pipeline:
            cold = pipeline.encode_catalog(hour=0)
            assert cold.encoded == cold.n_pages
            warm = pipeline.encode_catalog(hour=0)
            assert warm.encoded == 0
            assert [p.data for p in warm.pages] == [p.data for p in cold.pages]


class TestCatalogJob:
    def test_submit_commit_matches_serial(self):
        serial = _pipeline()
        expect = [p.data for p in serial.encode_catalog(hour=2).pages]

        with _pipeline().start(1) as pipeline:
            urls = pipeline.generator.all_urls()
            job = pipeline.submit_catalog(urls, hour=2)
            assert len(pipeline.store) == 0  # store writes wait for commit
            job.wait()
            assert job.ready()
            result = job.result()
            assert [p.data for p in result.pages] == expect
            assert len(pipeline.store) == result.n_pages
            assert pipeline.store.content_digest() == serial.store.content_digest()

    def test_result_idempotent(self):
        with _pipeline().start(1) as pipeline:
            job = pipeline.submit_catalog(pipeline.generator.all_urls()[:2], hour=0)
            assert job.result() is job.result()

    def test_overlapping_jobs_share_pending_renders(self):
        with _pipeline().start(1) as pipeline:
            urls = pipeline.generator.all_urls()[:3]
            a = pipeline.submit_catalog(urls, hour=0)
            b = pipeline.submit_catalog(urls, hour=0)
            ra, rb = a.result(), b.result()
            assert [p.data for p in ra.pages] == [p.data for p in rb.pages]
            # The second job harvested the first job's renders.
            assert rb.store_hits + rb.encoded == len(urls)


class TestPrefetch:
    def test_prefetch_warms_store_without_changing_bytes(self):
        serial = _pipeline()
        serial.encode_catalog(hour=3)

        with _pipeline().start(1) as pipeline:
            urls = pipeline.generator.all_urls()
            assert pipeline.prefetch(urls, hour=3) == len(urls)
            assert pipeline.prefetch_submitted == len(urls)
            result = pipeline.encode_catalog(hour=3)
            assert pipeline.prefetch_used == result.encoded
            assert pipeline.store.content_digest() == serial.store.content_digest()

    def test_unharvested_prefetch_never_pollutes_store(self):
        serial = _pipeline()
        serial.encode_catalog(hour=0)

        with _pipeline().start(1) as pipeline:
            pipeline.encode_catalog(hour=0)
            # Speculate on hour 9; nothing ever asks for it.  The inline
            # worker defers the render, so the store stays equal to the
            # serial run rather than a superset of it.
            pipeline.prefetch(pipeline.generator.all_urls(), hour=9)
            pipeline.drain_prefetch()
            assert pipeline.store.content_digest() == serial.store.content_digest()


    def test_prefetch_drained_before_its_request_counts_as_used(self):
        with _pipeline().start(2) as pipeline:
            url = pipeline.generator.all_urls()[0]
            assert pipeline.prefetch([url], hour=5) == 1
            # The render lands in the store before any job asks for it.
            deadline = time.monotonic() + 60.0
            while pipeline.drain_prefetch() == 0:
                assert time.monotonic() < deadline, "prefetch never finished"
                time.sleep(0.01)
            assert pipeline.encode_catalog([url], hour=5).pages[0].from_store
            assert pipeline.prefetch_used == 1
            # Only the first store hit counts.
            pipeline.encode_catalog([url], hour=5)
            assert pipeline.prefetch_used == 1
            assert pipeline.prefetch_submitted == 1


class TestContentDigest:
    def test_insertion_order_irrelevant(self):
        a, b = BundleStore(), BundleStore()
        a.put("k1", b"x")
        a.put("k2", b"y")
        b.put("k2", b"y")
        b.put("k1", b"x")
        assert a.content_digest() == b.content_digest()

    def test_sensitive_to_key_and_bytes(self):
        a, b, c = BundleStore(), BundleStore(), BundleStore()
        a.put("k1", b"x")
        b.put("k1", b"z")
        c.put("k9", b"x")
        assert len({s.content_digest() for s in (a, b, c)}) == 3

    def test_includes_disk_entries(self, tmp_path):
        first = BundleStore(capacity=1, directory=tmp_path)
        first.put("k1", b"x")
        first.put("k2", b"y")  # evicts k1 from memory, not from disk
        reopened = BundleStore(directory=tmp_path)
        assert reopened.content_digest() == first.content_digest()

    def test_superset_of(self):
        small, big = BundleStore(), BundleStore()
        small.put("k1", b"x")
        big.put("k1", b"x")
        big.put("k2", b"y")
        assert big.superset_of(small)
        assert not small.superset_of(big)
        small.put("k3", b"corrupt")
        assert not big.superset_of(small)


class TestFrontendModeParity:
    """Every batch size and worker count reproduces the serial ledger."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_requests(
            RequestTraceConfig(hours=2.0, n_pages=8, n_requests=1_500, seed=5)
        )

    @pytest.fixture(scope="class")
    def serial(self, trace):
        return self._run(trace, serial=True)

    @staticmethod
    def _run(trace, serial=False, max_batch=8192, pool=None):
        pipeline = _pipeline()
        if pool is not None:
            pipeline.start(pool)
        frontend = RequestFrontend(
            CatalogResolver(pipeline, processes=1),
            FrontendConfig(max_batch=max_batch),
        )
        frontend.run(trace, serial=serial)
        digest = frontend.ledger.digest()
        pipeline.close()
        frontend.ledger.close()
        return digest, pipeline.store

    @pytest.mark.parametrize("pool", [1, 2], ids=["inline", "subprocess"])
    @pytest.mark.parametrize("max_batch", [1, 7, 8192])
    def test_all_modes_reproduce_serial_ledger(self, trace, serial, max_batch, pool):
        d_serial, s_serial = serial
        digest, store = self._run(trace, max_batch=max_batch, pool=pool)
        assert digest == d_serial
        # Prefetch may add bundles beyond what demand produced, but can
        # never change one the serial run wrote; one worker renders a
        # prefetch only when a later job needs it.
        assert store.superset_of(s_serial)
        if pool == 1:
            assert store.content_digest() == s_serial.content_digest()

    def test_cohort_committed_after_epoch_rollover(self):
        # Arrivals in the last tick of hour 0 commit at 3600 s, after the
        # front page's epoch rolls over: rendering ahead must resolve
        # them at the commit hour, exactly as the serial path does.
        generator = _pipeline().generator
        front = generator.all_urls()[0]
        assert generator.effective_epoch(front, 0) != generator.effective_epoch(front, 1)
        trace = RequestTrace(
            times=np.linspace(3591.0, 3599.0, 5),
            url_index=np.zeros(5, dtype=np.int32),
            n_pages=1,
            duration_s=7200.0,
        )
        d_serial, s_serial = self._run(trace, serial=True)
        digest, store = self._run(trace)
        assert digest == d_serial
        assert store.content_digest() == s_serial.content_digest()


class TestServerPipelineReuse:
    @pytest.fixture()
    def server(self):
        gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
        generator = SiteGenerator(seed=42, n_sites=2)
        registry = TransmitterRegistry(
            [Transmitter("lhr", Location(31.5204, 74.3587), 93.7, coverage_km=30.0)]
        )
        return registry, SonicServer(
            generator,
            registry,
            gateway,
            ServerConfig(render_width=240, max_pixel_height=600),
        )

    def test_pipeline_cached_across_pushes(self, server):
        registry, srv = server
        pipeline = srv.catalog_pipeline()
        assert srv.catalog_pipeline() is pipeline
        srv.push_catalog(registry.get("lhr"), now=0.0, processes=1)
        assert srv.catalog_pipeline() is pipeline
        assert len(pipeline.store) > 0

    def test_persistent_request_starts_pool_and_close_stops_it(self, server):
        registry, srv = server
        pipeline = srv.catalog_pipeline()
        srv.push_catalog(registry.get("lhr"), now=0.0, processes=2)
        assert srv.catalog_pipeline() is pipeline  # still the same object
        assert pipeline._pool.processes == 2  # kept after the push
        srv.close()
        assert pipeline._pool is None
        assert multiprocessing.active_children() == []
