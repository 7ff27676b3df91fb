"""Catalog-scale render/encode pipeline over a worker pool.

The paper's server re-renders its top-100 catalog every hour (Figure
4(c)); at production widths a single page costs render + DCT + entropy
coding, so the catalog is embarrassingly parallel work.  This module
fans the misses out over a :class:`~repro.util.parallel.WorkerPool`
while a :class:`~repro.server.cache.BundleStore` short-circuits
everything that was already encoded — the same split as
:mod:`repro.sim.receivers`:

* each worker process builds one :class:`~repro.web.sites.SiteGenerator`
  and one :class:`~repro.web.render.PageRenderer` at start-up and reuses
  them for every page it encodes;
* a page's bytes are a pure function of ``(config, url, hour)``, so the
  pooled result is byte-identical to the serial path regardless of how
  the pool schedules the work; and
* store lookups happen up front in the parent, so only genuine misses
  ever reach the pool — a warm store makes ``encode_catalog`` free.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.server.cache import BundleStore, bundle_key
from repro.transport.bundle import PageBundle
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
    quality: int = 10
    expiry_hours: float = 24.0


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
    config: CatalogConfig, generator: SiteGenerator | None = None
) -> tuple[SiteGenerator, PageRenderer, CatalogConfig]:
    """One renderer's state, built once and kept warm across pages."""
    if generator is None:
        generator = SiteGenerator(seed=config.seed, n_sites=config.n_sites)
    renderer = PageRenderer(width=config.width, max_height=config.max_height)
    return generator, renderer, config


def _render_encode(state: tuple, page: tuple[str, int]) -> bytes:
    """Render + encode one page — the pure function both paths share."""
    generator, renderer, config = state
    url, hour = page
    result = renderer.render(generator.page(url, hour))
    bundle = PageBundle(
        url,
        result.image,
        result.clickmap,
        expiry_hours=config.expiry_hours,
        quality=config.quality,
    )
    return bundle.to_bytes()


class CatalogJob:
    """Handle for an in-flight :meth:`CatalogPipeline.submit_catalog`.

    Separates the pure *resolve* (render+encode, safe to run any time)
    from the state-mutating *commit* (store puts, in submission order),
    so a caller can overlap rendering with other work and commit at a
    deterministic point — the front end commits at tick boundaries.
    """

    def __init__(self, pipeline: "CatalogPipeline", hour: int, entries: list) -> None:
        self._pipeline = pipeline
        self.hour = hour
        # (url, key, epoch, bytes | Future | None, from_store)
        self._entries = entries
        self._result: CatalogResult | None = None
        self._t0 = time.perf_counter()

    def ready(self) -> bool:
        """True once every miss has finished rendering."""
        if self._result is not None:
            return True
        return all(
            not isinstance(payload, Future) or payload.done()
            for _, _, _, payload, _ in self._entries
        )

    def wait(self) -> None:
        """Block until every miss has rendered.  Only waits on the pool,
        touching no pipeline state."""
        for _, _, _, payload, _ in self._entries:
            if isinstance(payload, Future):
                payload.result()

    def result(self) -> CatalogResult:
        """Commit: collect every page (blocking if needed) and put misses
        into the store in submission order, exactly like the serial path."""
        if self._result is not None:
            return self._result
        pipeline = self._pipeline
        pages = []
        for url, key, epoch, payload, from_store in self._entries:
            if from_store:
                pages.append(CatalogPage(url, epoch, key, payload, True))
                continue
            if payload is None:  # no pool attached: render at commit time
                data = pipeline.store.get(key)  # an earlier job may have landed it
                if data is None:
                    data = pipeline._encode_serial(url, self.hour)
            else:
                data = payload.result()
                pipeline._pending.pop(key, None)
            pipeline.store.put(key, data)
            pages.append(CatalogPage(url, epoch, key, data, False))
        processes = pipeline._pool.processes if pipeline.persistent else 1
        self._result = CatalogResult(
            tuple(pages), processes, time.perf_counter() - self._t0
        )
        return self._result


class CatalogPipeline:
    """Store-backed catalog encoder: serial, or over a worker pool.

    :meth:`start` attaches a persistent worker pool — each worker builds
    its :class:`SiteGenerator`/:class:`PageRenderer` once and keeps its
    raster caches warm across every subsequent call.  Renders finish in
    any order but commits happen in slot order, so results stay
    byte-identical to serial.  With a pool attached the pipeline also
    overlaps :meth:`submit_catalog` jobs with the caller and runs
    speculative :meth:`prefetch`.
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
        self._serial: tuple | None = None  # lazy; pool-less renders only
        self._pool: WorkerPool | None = None
        self._pending: dict[str, Future] = {}
        self._prefetch_keys: set[str] = set()
        self.prefetch_submitted = 0
        self.prefetch_used = 0

    # -- persistent pool lifecycle --------------------------------------------

    def start(self, processes: int | None = None) -> "CatalogPipeline":
        """Attach the persistent worker pool (idempotent).

        ``processes=None`` sizes the pool to the host.  A pool of one
        process keeps the warm generator/renderer in this process and
        renders each page at the first commit that needs it, so an
        unharvested speculative prefetch costs nothing.
        """
        if self._pool is None:
            self._pool = WorkerPool(worker_count(processes), _render_state, self.config)
        return self

    @property
    def persistent(self) -> bool:
        return self._pool is not None

    def close(self) -> None:
        """Tear down the pool, abandoning any un-harvested prefetches."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pending.clear()
            self._prefetch_keys.clear()

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

    def _encode_serial(self, url: str, hour: int) -> bytes:
        if self._serial is None:
            self._serial = _render_state(self.config, self.generator)
        return _render_encode(self._serial, (url, hour))

    def encode_page(self, url: str, hour: int = 0) -> CatalogPage:
        """One page through the store-backed pipeline (always serial)."""
        key, epoch = self.page_key(url, hour)
        data = self.store.get(key)
        if data is not None:
            return CatalogPage(url, epoch, key, data, True)
        data = self._encode_serial(url, hour)
        self.store.put(key, data)
        return CatalogPage(url, epoch, key, data, False)

    def encode_catalog(
        self,
        urls: list[str] | None = None,
        hour: int = 0,
        processes: int | None = None,
    ) -> CatalogResult:
        """Encode all (or the given) catalog URLs as they appear at ``hour``.

        With a started pool this is ``submit_catalog(urls, hour).result()``.
        Otherwise ``processes=None`` picks ``min(misses, cpu_count)``;
        one process (or a single miss) runs serially in this process,
        and more start a pool for this call only.  Either way the
        resulting bundle bytes are identical, and every miss lands in
        the store for the next hour/run to reuse.
        """
        urls = list(urls) if urls is not None else self.generator.all_urls()
        if self._pool is not None:
            return self.submit_catalog(urls, hour).result()
        t0 = time.perf_counter()
        keyed = [self.page_key(url, hour) for url in urls]
        # Sized with a containment check, which leaves the store's
        # hit/miss counters to the one lookup per page below.
        processes = worker_count(
            processes, sum(key not in self.store for key, _ in keyed)
        )
        if processes > 1:
            with self.start(processes):
                return self.submit_catalog(urls, hour).result()
        found = [self.store.get(key) for key, _ in keyed]
        misses = [i for i, data in enumerate(found) if data is None]
        for i in misses:
            found[i] = self._encode_serial(urls[i], hour)
        # Every encode first, then the puts in slot order: the store sees
        # the same access sequence as a pooled run.
        for i in misses:
            self.store.put(keyed[i][0], found[i])
        missed = set(misses)
        pages = tuple(
            CatalogPage(url, epoch, key, data, i not in missed)
            for i, (url, (key, epoch), data) in enumerate(zip(urls, keyed, found))
        )
        return CatalogResult(pages, 1, time.perf_counter() - t0)

    # -- asynchronous jobs + speculative prefetch -----------------------------

    def submit_catalog(self, urls: list[str], hour: int = 0) -> CatalogJob:
        """Begin encoding; returns a :class:`CatalogJob` to commit later.

        Store lookups and miss dispatch happen now (misses go to the
        persistent pool if one is attached); store writes wait for
        :meth:`CatalogJob.result`.  Without a pool the job renders its
        misses at commit time — same outcome, no overlap.
        """
        entries: list = []
        job = CatalogJob(self, hour, entries)  # its clock starts here
        for url in urls:
            key, epoch = self.page_key(url, hour)
            data = self.store.get(key)
            if data is not None:
                entries.append((url, key, epoch, data, True))
                continue
            payload = None
            if self._pool is not None:
                payload = self._pending.get(key)
                if payload is None:
                    payload = self._pool.submit(_render_encode, (url, hour))
                    self._pending[key] = payload
                elif key in self._prefetch_keys:
                    self._prefetch_keys.discard(key)
                    self.prefetch_used += 1
            entries.append((url, key, epoch, payload, False))
        return job

    def prefetch(self, urls: list[str], hour: int) -> int:
        """Queue speculative renders of ``urls`` as they appear at ``hour``.

        Only store misses not already in flight are queued, and results
        only ever warm the store (bytes are pure in (config, url, hour)),
        so prefetching can never change an outcome — just its cost.
        No-op without a persistent pool.  Returns how many were queued.
        """
        if self._pool is None:
            return 0
        queued = 0
        for url in urls:
            key, _ = self.page_key(url, hour)
            if key in self._pending or key in self.store:
                continue
            self._pending[key] = self._pool.submit(_render_encode, (url, hour))
            self._prefetch_keys.add(key)
            self.prefetch_submitted += 1
            queued += 1
        return queued

    def drain_prefetch(self, block: bool = False) -> int:
        """Move finished speculative renders into the store; returns count."""
        done = 0
        for key, future in list(self._pending.items()):
            if block or future.done():
                data = future.result()
                if key not in self.store:
                    self.store.put(key, data)
                del self._pending[key]
                self._prefetch_keys.discard(key)
                done += 1
        return done
