"""Catalog-scale render/encode pipeline over a worker pool.

The paper's server re-renders its top-100 catalog every hour (Figure
4(c)); at production widths a single page costs render + DCT + entropy
coding, so the catalog is embarrassingly parallel work.  This module
sends the misses to a :class:`~repro.util.parallel.WorkerPool` while a
:class:`~repro.server.cache.BundleStore` short-circuits everything that
was already encoded — the same split as :mod:`repro.sim.receivers`:

* every miss renders through the one pool, whose size is the only
  choice a caller makes; one worker renders in this process, each page
  at the first commit that needs it;
* each worker builds one :class:`~repro.web.render.PageRenderer` at
  start-up and reuses it for every page it encodes;
* a page's bytes are a pure function of ``(config, url, hour)``, so the
  result is byte-identical for any worker count and any schedule; and
* store lookups happen up front in the parent, so only genuine misses
  ever reach the pool — a warm store makes ``encode_catalog`` free.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.server.cache import BundleStore, bundle_key
from repro.transport.bundle import BROADCAST_QUALITY, PageBundle
from repro.util.parallel import WorkerPool, worker_count
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator

__all__ = [
    "CatalogConfig",
    "CatalogPage",
    "CatalogResult",
    "CatalogJob",
    "CatalogPipeline",
]


@dataclass(frozen=True)
class CatalogConfig:
    """Everything an encoded page depends on besides (url, hour)."""

    seed: int = 42
    n_sites: int = 25
    width: int = 1080
    max_height: int | None = 10_000
    quality: int = BROADCAST_QUALITY


@dataclass(frozen=True)
class CatalogPage:
    """One encoded catalog entry."""

    url: str
    epoch: int
    key: str
    data: bytes
    from_store: bool


@dataclass(frozen=True)
class CatalogResult:
    """Outcome of one :meth:`CatalogPipeline.encode_catalog` run."""

    pages: tuple[CatalogPage, ...]
    processes: int
    elapsed_s: float

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def store_hits(self) -> int:
        return sum(1 for p in self.pages if p.from_store)

    @property
    def encoded(self) -> int:
        return sum(1 for p in self.pages if not p.from_store)

    @property
    def pages_per_s(self) -> float:
        return self.n_pages / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _render_state(
    config: CatalogConfig, generator: SiteGenerator
) -> tuple[SiteGenerator, PageRenderer, CatalogConfig]:
    """One renderer's state, built once and kept warm across pages."""
    renderer = PageRenderer(width=config.width, max_height=config.max_height)
    return generator, renderer, config


def _render_encode(state: tuple, page: tuple[str, int]) -> bytes:
    """Render + encode one page: the pure function every worker runs."""
    generator, renderer, config = state
    url, hour = page
    result = renderer.render(generator.page(url, hour))
    bundle = PageBundle(url, result.image, result.clickmap, quality=config.quality)
    return bundle.to_bytes()


class CatalogJob:
    """Handle for an in-flight :meth:`CatalogPipeline.submit_catalog`.

    Separates the pure *resolve* (render+encode, safe to run any time)
    from the state-mutating *commit* (store puts, in submission order),
    so a caller can overlap rendering with other work and commit at a
    deterministic point — the front end commits at tick boundaries.
    """

    def __init__(
        self, pipeline: "CatalogPipeline", processes: int, entries: list
    ) -> None:
        self._pipeline = pipeline
        self._processes = processes
        # (url, key, epoch, bytes | Future, from_store)
        self._entries = entries
        self._result: CatalogResult | None = None
        self._t0 = time.perf_counter()

    def ready(self) -> bool:
        """True once every miss has finished rendering."""
        if self._result is not None:
            return True
        return all(
            from_store or payload.done()
            for _, _, _, payload, from_store in self._entries
        )

    def wait(self) -> None:
        """Block until every miss has rendered.  Only waits on the pool,
        touching no pipeline state."""
        for _, _, _, payload, from_store in self._entries:
            if not from_store:
                payload.result()

    def result(self) -> CatalogResult:
        """Commit: collect every page (blocking if needed) and put misses
        into the store in submission order."""
        if self._result is not None:
            return self._result
        pipeline = self._pipeline
        pages = []
        for url, key, epoch, payload, from_store in self._entries:
            if not from_store:
                payload = payload.result()
                pipeline._pending.pop(key, None)
                pipeline.store.put(key, payload)
            pages.append(CatalogPage(url, epoch, key, payload, from_store))
        self._result = CatalogResult(
            tuple(pages), self._processes, time.perf_counter() - self._t0
        )
        return self._result


class CatalogPipeline:
    """Store-backed catalog encoder over one worker pool.

    Each worker keeps its :class:`PageRenderer` and raster caches warm
    across every call.  Renders finish in any order but commits happen
    in slot order, so results are byte-identical for any worker count.
    With more than one worker the pipeline overlaps
    :meth:`submit_catalog` jobs with the caller and runs speculative
    :meth:`prefetch` renders in the background.
    """

    def __init__(
        self,
        config: CatalogConfig = CatalogConfig(),
        store: BundleStore | None = None,
        generator: SiteGenerator | None = None,
    ) -> None:
        self.config = config
        self.store = store if store is not None else BundleStore()
        self.generator = generator or SiteGenerator(
            seed=config.seed, n_sites=config.n_sites
        )
        self._pool: WorkerPool | None = None
        self._pending: dict[str, Future] = {}
        self._prefetch_keys: set[str] = set()
        # Prefetches drain_prefetch stored before any job asked for them;
        # each counts as used at its first store hit.
        self._drained_prefetch_keys: set[str] = set()
        self.prefetch_submitted = 0
        self.prefetch_used = 0

    # -- worker pool lifecycle ------------------------------------------------

    def start(self, processes: int | None = None) -> "CatalogPipeline":
        """Open ``worker_count(processes)`` render workers; returns self.

        ``processes=None`` sizes the pool to the host.  One worker
        renders in this process, each page at the first commit that
        needs it, so an unharvested speculative prefetch costs nothing.
        An open one-worker pool is replaced when more workers are asked
        for (its deferred renders hold their own state and stay valid);
        once a multi-process pool is open, this is a no-op.
        """
        processes = worker_count(processes)
        if self._pool is None or (self._pool.processes == 1 and processes > 1):
            self._pool = WorkerPool(
                processes, _render_state, self.config, self.generator
            )
        return self

    def close(self) -> None:
        """Tear down the pool, abandoning any un-harvested prefetches."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pending.clear()
            self._prefetch_keys.clear()
            self._drained_prefetch_keys.clear()

    def __enter__(self) -> "CatalogPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def page_key(self, url: str, hour: int) -> tuple[str, int]:
        """(store key, content epoch) of a page at an hour."""
        epoch = self.generator.effective_epoch(url, hour)
        cfg = self.config
        key = bundle_key(
            url, epoch, cfg.width, cfg.max_height, cfg.quality, cfg.seed
        )
        return key, epoch

    def encode_page(self, url: str, hour: int = 0) -> CatalogPage:
        """One page through the store-backed pipeline."""
        return self.encode_catalog([url], hour).pages[0]

    def encode_catalog(
        self, urls: list[str] | None = None, hour: int = 0
    ) -> CatalogResult:
        """Encode all (or the given) catalog URLs as they appear at ``hour``.

        ``submit_catalog(urls, hour).result()``: every miss lands in the
        store for the next hour/run to reuse.
        """
        if urls is None:
            urls = self.generator.all_urls()
        return self.submit_catalog(urls, hour).result()

    # -- asynchronous jobs + speculative prefetch -----------------------------

    def submit_catalog(self, urls: list[str], hour: int = 0) -> CatalogJob:
        """Begin encoding; returns a :class:`CatalogJob` to commit later.

        Store lookups and miss dispatch happen now, on a one-worker pool
        if none is open; store writes wait for :meth:`CatalogJob.result`.
        """
        pool = self.start(1)._pool
        entries: list = []
        job = CatalogJob(self, pool.processes, entries)  # its clock starts here
        for url in urls:
            key, epoch = self.page_key(url, hour)
            data = self.store.get(key)
            if key in self._drained_prefetch_keys:
                # First request since the drain: used unless evicted.
                self._drained_prefetch_keys.discard(key)
                if data is not None:
                    self.prefetch_used += 1
            if data is not None:
                entries.append((url, key, epoch, data, True))
                continue
            future = self._pending.get(key)
            if future is None:
                future = self._pending[key] = pool.submit(_render_encode, (url, hour))
            elif key in self._prefetch_keys:
                self._prefetch_keys.discard(key)
                self.prefetch_used += 1
            entries.append((url, key, epoch, future, False))
        return job

    def prefetch(self, urls: list[str], hour: int) -> int:
        """Queue speculative renders of ``urls`` as they appear at ``hour``.

        Only store misses not already in flight are queued, and results
        only ever warm the store (bytes are pure in (config, url, hour)),
        so prefetching can never change an outcome — just its cost.
        Opens a one-worker pool if none is open; its renders run only
        if a later job needs them.  Returns how many were queued.
        """
        pool = self.start(1)._pool
        queued = 0
        for url in urls:
            key, _ = self.page_key(url, hour)
            if key in self._pending or key in self.store:
                continue
            self._pending[key] = pool.submit(_render_encode, (url, hour))
            self._prefetch_keys.add(key)
            self.prefetch_submitted += 1
            queued += 1
        return queued

    def drain_prefetch(self) -> int:
        """Move finished speculative renders into the store; returns count."""
        done = 0
        for key, future in list(self._pending.items()):
            if future.done():
                data = future.result()
                if key not in self.store:
                    self.store.put(key, data)
                del self._pending[key]
                if key in self._prefetch_keys:
                    self._prefetch_keys.discard(key)
                    self._drained_prefetch_keys.add(key)
                done += 1
        return done
