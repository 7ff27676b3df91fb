"""One owner for a page's version: every module reads ``SiteGenerator``.

The request front end, the render catalog's store keys, the station
network's hourly pricing, the popularity push and the Figure 4(c)
workload each key on a page's version at an hour.  Each must agree with
:meth:`SiteGenerator.effective_epoch` of an independent generator of the
same corpus, asked in its own order.
"""

from repro.server.cache import bundle_key
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.frontend import FrontendConfig, RequestFrontend, SizeModelResolver
from repro.server.network import BroadcastNetwork, NetworkConfig
from repro.server.scheduler import REFRESH_TOP_N, PopularityScheduler
from repro.sim.workload import (
    BroadcastWorkload,
    RequestTraceConfig,
    WorkloadConfig,
    generate_requests,
)
from repro.transport.carousel import BroadcastCarousel
from repro.web.sites import SiteGenerator

SEED = 42
N_SITES = 3
HOURS = 30


def _reference() -> dict[tuple[str, int], int]:
    """(url, hour) -> version from a fresh generator, latest hour first."""
    gen = SiteGenerator(seed=SEED, n_sites=N_SITES)
    return {
        (url, hour): gen.effective_epoch(url, hour)
        for hour in reversed(range(-1, HOURS + 1))
        for url in gen.all_urls()
    }


class _RecordingFrontend(RequestFrontend):
    """Records (url index, version, hour) of every page it enqueues."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.enqueued: list[tuple[int, int, int]] = []

    def _enqueue_page(self, index: int, epoch: int, size: int) -> None:
        self.enqueued.append((index, epoch, int(self.now // 3600)))
        super()._enqueue_page(index, epoch, size)


def test_every_reader_agrees_with_effective_epoch():
    ref = _reference()
    gen = SiteGenerator(seed=SEED, n_sites=N_SITES)
    urls = gen.all_urls()

    # The front end, backpressure retries included.
    resolver = SizeModelResolver(gen, max_page_bytes=60_000)
    frontend = _RecordingFrontend(
        resolver, FrontendConfig(max_backlog_bytes=150_000, defer_capacity=50_000)
    )
    trace = generate_requests(
        RequestTraceConfig(hours=24.0, n_pages=len(urls), n_requests=4_000, seed=3)
    )
    frontend.run(trace)
    assert frontend.stats.retried > 0 and frontend.stats.replaced_pages > 0
    hours_seen = {hour for _, _, hour in frontend.enqueued}
    assert len(hours_seen) > 20
    for index, epoch, hour in frontend.enqueued:
        assert epoch == ref[urls[index], hour]

    # The render catalog's store key.
    config = CatalogConfig(seed=SEED, n_sites=N_SITES, width=240, max_height=600)
    pipeline = CatalogPipeline(config)
    for (url, hour), version in ref.items():
        key, epoch = pipeline.page_key(url, hour)
        assert epoch == version
        assert key == bundle_key(
            url, version, config.width, config.max_height, config.quality, SEED
        )

    # The station network's hourly pricing.
    network = BroadcastNetwork(NetworkConfig(n_stations=1, n_pages=4 * N_SITES))
    assert list(network.urls) == urls
    for hour in range(HOURS + 1):
        _, versions = network._epoch_pages(hour)
        assert versions.tolist() == [ref[url, hour] for url in urls]

    # The changed set of the hourly popularity push and of the workload.
    scheduler = PopularityScheduler(gen)
    workload = BroadcastWorkload(WorkloadConfig(n_pages=4 * N_SITES, seed=SEED))
    for hour in range(HOURS + 1):
        changed = {
            url for url in urls if hour == 0 or ref[url, hour] != ref[url, hour - 1]
        }
        pushed = {url for url, _ in scheduler.pages_to_push(hour)}
        assert changed <= pushed
        extra = 0 if hour == 0 else min(REFRESH_TOP_N, len(urls) - len(changed))
        assert len(pushed) == len(changed) + extra

        carousel = BroadcastCarousel(10_000.0)
        added = workload.enqueue_hour(carousel, hour)
        items = carousel.queued_items()
        assert {item.url for item in items} == changed
        for item in items:
            size = workload.size_model.size_at(item.url, ref[item.url, hour])
            assert item.size_bytes == size
        assert added == sum(item.size_bytes for item in items)
