"""The three-day broadcast workload behind Figure 4(c).

The paper rendered its 100-page corpus hourly for three days and plotted
how much data waits to be broadcast as a function of the channel rate
(10/20/40 kbps) and corpus size (N=100/200).  ``BroadcastWorkload``
replays that schedule: every hour, pages whose content changed are
(re)queued on the carousel at their freshly-encoded size; the carousel
drains continuously at the configured rate.

Page sizes come from a :class:`PageSizeModel` — by default a per-page
log-normal calibrated against measured SWebp Q10/PH10k encodes of the
same generator's pages (see EXPERIMENTS.md), optionally replaced by real
measurements via :meth:`PageSizeModel.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.util.rng import counter_uniforms, derive_key, derive_rng
from repro.web.sites import SiteGenerator
from repro.web.tranco import ZIPF_EXPONENT

__all__ = [
    "PageSizeModel",
    "WorkloadConfig",
    "BroadcastWorkload",
    "RequestTraceConfig",
    "RequestTrace",
    "generate_requests",
]

# Median Q10/PH10k encoded size (bytes) per category, calibrated against
# SWebp measurements of the generator's corpus.
_CATEGORY_MEDIAN_BYTES = {
    "news": 300_000,
    "sports": 280_000,
    "portal": 260_000,
    "ecommerce": 240_000,
    "education": 180_000,
    "government": 150_000,
}
_SIGMA = 0.35  # log-normal spread across pages
_EPOCH_JITTER = 0.08  # hour-to-hour size wobble of the same page
#: Backlog sampling resolution of a Figure 4(c) run.
SAMPLE_MINUTES = 6


class PageSizeModel:
    """Bytes-on-air of each (url, content epoch) pair, encoded at Q10."""

    def __init__(self, generator: SiteGenerator) -> None:
        self._gen = generator
        self._measured: dict[str, int] = {}
        # Modelled base size per URL: one draw each, bounded by the corpus.
        self._modelled: dict[str, int] = {}

    def calibrate(self, measured: dict[str, int]) -> None:
        """Replace modelled base sizes with real encoder measurements."""
        self._measured.update(measured)

    def base_size(self, url: str) -> int:
        """The page's typical encoded size."""
        if url in self._measured:
            return self._measured[url]
        size = self._modelled.get(url)
        if size is None:
            domain = url.partition("/")[0]
            category = self._gen.website(domain).category
            rng = derive_rng(self._gen.seed, "size", url)
            median = _CATEGORY_MEDIAN_BYTES[category] * float(
                rng.lognormal(mean=0.0, sigma=_SIGMA)
            )
            size = self._modelled[url] = int(median)
        return size

    def size_at(self, url: str, epoch: int) -> int:
        """Size of the page's render at a specific content epoch."""
        jitter = derive_rng(self._gen.seed, "size-jitter", url, epoch)
        return int(self.base_size(url) * float(jitter.lognormal(0.0, _EPOCH_JITTER)))


@dataclass(frozen=True)
class RequestTraceConfig:
    """One simulated day of SMS page-request traffic.

    URL popularity is Zipf over the corpus's Tranco rank order (the same
    ``1/rank^s`` law, :data:`~repro.web.tranco.ZIPF_EXPONENT`, that
    :class:`~repro.web.tranco.TrancoList` assigns its popularity
    weights), and arrivals are a Poisson process under the
    simulated clock.  With ``n_requests`` set, the trace is the Poisson
    process conditioned on that exact count — arrival times become order
    statistics of uniforms — so benchmarks can pin "10⁶ queued requests"
    precisely; otherwise ``rate_per_s`` drives an unconditioned process.
    """

    hours: float = 24.0
    n_pages: int = 100
    rate_per_s: float = 12.0
    n_requests: int | None = None  # exact count (overrides rate_per_s)
    seed: int = 42

    @property
    def duration_s(self) -> float:
        return self.hours * 3600.0


@dataclass(frozen=True)
class RequestTrace:
    """Arrival times (sorted, seconds) and requested page indices."""

    times: np.ndarray
    url_index: np.ndarray
    n_pages: int
    duration_s: float

    @property
    def n_requests(self) -> int:
        return int(self.times.size)


def generate_requests(config: RequestTraceConfig) -> RequestTrace:
    """Vectorised, fully deterministic request-trace generation.

    All draws come from the counter RNG (pure functions of the seed and
    an absolute draw index), so the trace is bit-identical regardless of
    how — or in what order — callers slice it into ingest batches.
    """
    duration = config.duration_s
    key_t = derive_key(config.seed, "request-arrivals")
    key_u = derive_key(config.seed, "request-urls")

    if config.n_requests is not None:
        n = int(config.n_requests)
        times = np.sort(counter_uniforms(key_t, np.arange(n)) * duration)
    else:
        # Exponential inter-arrival gaps, drawn in blocks of absolute
        # counters until the cumulative clock passes the horizon.
        rate = config.rate_per_s
        if rate <= 0:
            raise ValueError("rate_per_s must be positive")
        expected = rate * duration
        block = int(expected + 10.0 * np.sqrt(expected) + 100)
        gaps: list[np.ndarray] = []
        start, total = 0, 0.0
        while True:
            u = counter_uniforms(key_t, np.arange(start, start + block))
            g = -np.log1p(-u) / rate
            gaps.append(g)
            start += block
            total += float(g.sum())
            if total >= duration:
                break
        times = np.cumsum(np.concatenate(gaps))
        times = times[times < duration]
        n = times.size

    # Zipf-over-rank page choice: corpus URLs are already in Tranco rank
    # order, so index i gets weight 1/(i+1)^s.
    weights = 1.0 / np.arange(1, config.n_pages + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = counter_uniforms(key_u, np.arange(n))
    url_index = np.searchsorted(cdf, u, side="right").astype(np.int32)
    np.minimum(url_index, config.n_pages - 1, out=url_index)
    return RequestTrace(times, url_index, config.n_pages, duration)


@dataclass(frozen=True)
class WorkloadConfig:
    """One Figure 4(c) curve."""

    rate_bps: float = 10_000.0
    n_pages: int = 100  # 100 -> 25 sites, 200 -> 50 sites
    n_hours: int = 72  # the paper collected 3 days
    seed: int = 42

    @property
    def n_sites(self) -> int:
        if self.n_pages % 4 != 0:
            raise ValueError("n_pages must be a multiple of 4 (1 landing + 3 internal)")
        return self.n_pages // 4


@dataclass
class WorkloadResult:
    """Backlog time series plus bookkeeping."""

    times_hours: np.ndarray
    backlog_mb: np.ndarray
    enqueued_mb_per_hour: np.ndarray

    def peak_backlog_mb(self) -> float:
        return float(np.max(self.backlog_mb))

    def fraction_time_empty(self) -> float:
        """Share of samples with an empty queue (drained)."""
        return float(np.mean(self.backlog_mb < 1e-6))


class BroadcastWorkload:
    """Replay the hourly re-render schedule against a carousel."""

    def __init__(self, config: WorkloadConfig = WorkloadConfig()) -> None:
        self.config = config
        self.generator = SiteGenerator(seed=config.seed, n_sites=config.n_sites)
        self.size_model = PageSizeModel(self.generator)

    def enqueue_hour(
        self, carousel: BroadcastCarousel, hour: int, pipeline=None
    ) -> int:
        """(Re)queue every page whose content changed at ``hour``.

        This is the hourly half of the Figure 4(c) schedule, shared by
        the batch :meth:`run` loop and the chunked ``repro stream``
        driver.  Returns the bytes enqueued.
        """
        gen = self.generator
        urls = gen.all_urls()
        versions = gen.versions(hour)
        if hour:
            due = versions != gen.versions(hour - 1)
        else:
            due = np.ones(len(urls), dtype=bool)  # hour 0 seeds the corpus
        added = 0
        for i in np.flatnonzero(due).tolist():
            url = urls[i]
            if pipeline is not None:
                size = len(pipeline.encode_page(url, hour).data)
            else:
                size = self.size_model.size_at(url, int(versions[i]))
            carousel.enqueue(CarouselItem(url, size, priority=1.0 / (i + 1)))
            added += size
        return added

    def run(self, pipeline=None) -> WorkloadResult:
        """Simulate the full horizon; returns the backlog series.

        With ``pipeline`` (a :class:`repro.server.catalog.CatalogPipeline`
        sharing this workload's generator config), every (re)queued page
        is priced at its *measured* encoded size: the pipeline renders +
        encodes through its :class:`~repro.server.cache.BundleStore`, so
        a page that did not change since the last hour — or since a
        previous run over the same store, e.g. another rate point of the
        Figure 4(c) sweep — reuses the stored bytes instead of
        re-encoding.
        """
        cfg = self.config
        if pipeline is not None and pipeline.config.seed != cfg.seed:
            raise ValueError("pipeline seed differs from workload seed")
        carousel = BroadcastCarousel(cfg.rate_bps)

        times: list[float] = []
        backlog: list[float] = []
        hourly_mb: list[float] = []
        step_s = SAMPLE_MINUTES * 60
        samples_per_hour = 3600 // step_s

        for hour in range(cfg.n_hours):
            added = self.enqueue_hour(carousel, hour, pipeline=pipeline)
            hourly_mb.append(added / 1e6)
            for k in range(samples_per_hour):
                carousel.drain(step_s)
                times.append(hour + (k + 1) / samples_per_hour)
                backlog.append(carousel.backlog_bytes() / 1e6)

        return WorkloadResult(np.array(times), np.array(backlog), np.array(hourly_mb))
