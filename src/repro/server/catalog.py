"""Catalog-scale render/encode pipeline over a multiprocessing pool.

The paper's server re-renders its top-100 catalog every hour (Figure
4(c)); at production widths a single page costs render + DCT + entropy
coding, so the catalog is embarrassingly parallel work.  This module
fans the misses out over a ``multiprocessing`` pool while a
:class:`~repro.server.cache.BundleStore` short-circuits everything that
was already encoded — the same split as :mod:`repro.sim.receivers`:

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

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass

from repro.server.cache import BundleStore, bundle_key
from repro.transport.bundle import PageBundle
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
    def total_bytes(self) -> int:
        return sum(len(p.data) for p in self.pages)

    @property
    def pages_per_s(self) -> float:
        return self.n_pages / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _render_encode(
    generator: SiteGenerator,
    renderer: PageRenderer,
    config: CatalogConfig,
    url: str,
    hour: int,
) -> bytes:
    """Render + encode one page — the pure function both paths share."""
    page = generator.page(url, hour)
    result = renderer.render(page)
    bundle = PageBundle(
        url,
        result.image,
        result.clickmap,
        expiry_hours=config.expiry_hours,
        quality=config.quality,
    )
    return bundle.to_bytes()


# Per-worker state, built once per pool process (plain module globals,
# mirroring repro.sim.receivers).
_worker_generator: SiteGenerator | None = None
_worker_renderer: PageRenderer | None = None
_worker_config: CatalogConfig | None = None


def _init_worker(config: CatalogConfig) -> None:
    global _worker_generator, _worker_renderer, _worker_config
    _worker_config = config
    _worker_generator = SiteGenerator(seed=config.seed, n_sites=config.n_sites)
    _worker_renderer = PageRenderer(width=config.width, max_height=config.max_height)


def _encode_worker(args: tuple[str, int]) -> bytes:
    url, hour = args
    assert _worker_generator is not None and _worker_renderer is not None
    assert _worker_config is not None
    return _render_encode(_worker_generator, _worker_renderer, _worker_config, url, hour)


def _encode_worker_indexed(args: tuple[int, str, int]) -> tuple[int, bytes]:
    """Tagged variant for ``imap_unordered``: results carry their slot."""
    i, url, hour = args
    return i, _encode_worker((url, hour))


class _InlineResult:
    """Lazy in-process stand-in for ``multiprocessing``'s AsyncResult.

    The render runs on the first call to :meth:`wait` or :meth:`get` —
    for the front end that is the commit of the cohort that asked for
    it, so a speculative render nobody harvests costs nothing.  A lock
    keeps first-caller-renders safe if a handle shared between
    overlapping jobs is waited on from two threads.
    """

    def __init__(self, encode, args: tuple[str, int]) -> None:
        self._encode = encode
        self._args = args
        self._lock = threading.Lock()
        self._value: bytes | None = None
        self._done = False

    def _run(self) -> None:
        with self._lock:
            if not self._done:
                self._value = self._encode(self._args)
                self._done = True

    def wait(self, timeout: float | None = None) -> None:
        self._run()

    def ready(self) -> bool:
        return self._done

    def get(self, timeout: float | None = None) -> bytes:
        self._run()
        assert self._value is not None
        return self._value


class _InlinePool:
    """In-process persistent worker, for hosts where one CPU is all there is.

    Subprocess workers cannot add parallelism on a single core — they
    only add fork, pickle, and queue latency — so :meth:`CatalogPipeline.start`
    resolving to one worker keeps the warm generator/renderer state in
    this process instead.  Work is deferred into :class:`_InlineResult`
    handles, which also makes unharvested speculative prefetches free.
    Implements exactly the slice of the ``Pool`` API the pipeline uses.
    """

    def __init__(self, config: CatalogConfig) -> None:
        self._generator = SiteGenerator(seed=config.seed, n_sites=config.n_sites)
        self._renderer = PageRenderer(
            width=config.width, max_height=config.max_height
        )
        self._config = config

    def _encode(self, args: tuple[str, int]) -> bytes:
        url, hour = args
        return _render_encode(
            self._generator, self._renderer, self._config, url, hour
        )

    # ``func`` is always one of this module's worker shims, whose state
    # lives in these bound generator/renderer instead of pool globals.
    def apply_async(self, func, args) -> _InlineResult:
        return _InlineResult(self._encode, args[0])

    def imap_unordered(self, func, iterable, chunksize: int = 1):
        for i, url, hour in iterable:
            yield i, self._encode((url, hour))

    def terminate(self) -> None:
        pass

    def join(self) -> None:
        pass


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
        # (url, key, epoch, bytes | AsyncResult | None, from_store)
        self._entries = entries
        self._result: CatalogResult | None = None
        self._t0 = time.perf_counter()

    def ready(self) -> bool:
        """True once every miss has finished rendering."""
        if self._result is not None:
            return True
        return all(
            payload is None or isinstance(payload, bytes) or payload.ready()
            for _, _, _, payload, _ in self._entries
        )

    def wait(self) -> None:
        """Block until every miss has rendered.  Only waits on pool
        events, touching no pipeline state."""
        for _, _, _, payload, _ in self._entries:
            if payload is not None and not isinstance(payload, bytes):
                payload.wait()

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
            elif isinstance(payload, bytes):
                data = payload
            else:
                data = payload.get()
                pipeline._pending.pop(key, None)
            pipeline.store.put(key, data)
            pages.append(CatalogPage(url, epoch, key, data, False))
        processes = pipeline._pool_processes if pipeline.persistent else 1
        self._result = CatalogResult(
            tuple(pages), processes, time.perf_counter() - self._t0
        )
        return self._result


class CatalogPipeline:
    """Store-backed catalog encoder: serial, or over a worker pool.

    :meth:`start` attaches a persistent worker pool — each worker builds
    its :class:`SiteGenerator`/:class:`PageRenderer` once and keeps its
    raster caches warm across every subsequent call.  Completion is
    out-of-order (``imap_unordered``) but commits happen in slot order,
    so results stay byte-identical to serial.  With a pool attached the
    pipeline also overlaps :meth:`submit_catalog` jobs with the caller
    and runs speculative :meth:`prefetch`.
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
        self._renderer: PageRenderer | None = None  # lazy; serial path only
        self._pool: multiprocessing.pool.Pool | _InlinePool | None = None
        self._pool_processes = 0
        self._pending: dict[str, multiprocessing.pool.AsyncResult | _InlineResult] = {}
        self._prefetch_keys: set[str] = set()
        self.prefetch_submitted = 0
        self.prefetch_used = 0

    # -- persistent pool lifecycle --------------------------------------------

    def start(self, processes: int | None = None) -> "CatalogPipeline":
        """Attach the persistent worker pool (idempotent).

        ``processes=None`` sizes the pool to the host; a resolved count
        of one skips subprocesses entirely and serves jobs from an
        in-process :class:`_InlinePool` with the same warm-worker
        semantics.
        """
        if self._pool is None:
            n = max(1, int(processes if processes is not None else os.cpu_count() or 1))
            if n == 1:
                self._pool = _InlinePool(self.config)
            else:
                self._pool = multiprocessing.Pool(
                    n, initializer=_init_worker, initargs=(self.config,)
                )
            self._pool_processes = n
        return self

    @property
    def persistent(self) -> bool:
        return self._pool is not None

    def close(self) -> None:
        """Tear down the pool, abandoning any un-harvested prefetches."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_processes = 0
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
        if self._renderer is None:
            self._renderer = PageRenderer(
                width=self.config.width, max_height=self.config.max_height
            )
        return _render_encode(self.generator, self._renderer, self.config, url, hour)

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

        ``processes=None`` picks ``min(misses, cpu_count)``;
        ``processes<=1`` (or a single miss) runs serially in this
        process.  Without a started pool, more processes start one for
        this call only.  Either way the resulting bundle bytes are
        identical, and every miss lands in the store for the next
        hour/run to reuse.
        """
        urls = list(urls) if urls is not None else self.generator.all_urls()
        t0 = time.perf_counter()
        keyed = [self.page_key(url, hour) for url in urls]
        pages: list[CatalogPage | None] = []
        misses: list[int] = []
        for i, (url, (key, epoch)) in enumerate(zip(urls, keyed)):
            data = self.store.get(key)
            if data is None:
                pages.append(None)
                misses.append(i)
            else:
                pages.append(CatalogPage(url, epoch, key, data, True))

        if self._pool is not None:
            processes = self._pool_processes
        else:
            if processes is None:
                processes = min(len(misses), os.cpu_count() or 1)
            processes = max(1, int(processes))

        if misses:
            if self._pool is None and (processes == 1 or len(misses) == 1):
                encoded = [self._encode_serial(urls[i], hour) for i in misses]
            elif self._pool is not None:
                encoded = self._encode_misses_pool(urls, keyed, misses, hour)
            else:
                self.start(processes)
                try:
                    encoded = self._encode_misses_pool(urls, keyed, misses, hour)
                finally:
                    self.close()
            # Commit in slot order regardless of completion order: the
            # store sees the same put sequence as the serial path.
            for i, data in zip(misses, encoded):
                key, epoch = keyed[i]
                self.store.put(key, data)
                pages[i] = CatalogPage(urls[i], epoch, key, data, False)

        done = [p for p in pages if p is not None]
        assert len(done) == len(urls)
        return CatalogResult(tuple(done), processes, time.perf_counter() - t0)

    def _encode_misses_pool(
        self,
        urls: list[str],
        keyed: list[tuple[str, int]],
        misses: list[int],
        hour: int,
    ) -> list[bytes]:
        """Misses through the persistent pool, back in slot order.

        In-flight prefetches/submissions for the same key are harvested
        instead of re-rendered; the rest stream through
        ``imap_unordered`` and are reordered parent-side.
        """
        assert self._pool is not None
        out: dict[int, bytes] = {}
        todo: list[int] = []
        for i in misses:
            key = keyed[i][0]
            pending = self._pending.pop(key, None)
            if pending is not None:
                if key in self._prefetch_keys:
                    self._prefetch_keys.discard(key)
                    self.prefetch_used += 1
                out[i] = pending.get()
            else:
                todo.append(i)
        if todo:
            for i, data in self._pool.imap_unordered(
                _encode_worker_indexed,
                [(i, urls[i], hour) for i in todo],
                chunksize=1,
            ):
                out[i] = data
        return [out[i] for i in misses]

    # -- asynchronous jobs + speculative prefetch -----------------------------

    def submit_catalog(self, urls: list[str], hour: int = 0) -> CatalogJob:
        """Begin encoding; returns a :class:`CatalogJob` to commit later.

        Store lookups and miss dispatch happen now (misses go to the
        persistent pool if one is attached); store writes wait for
        :meth:`CatalogJob.result`.  Without a pool the job renders its
        misses at commit time — same outcome, no overlap.
        """
        urls = list(urls)
        entries = []
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
                    payload = self._pool.apply_async(_encode_worker, ((url, hour),))
                    self._pending[key] = payload
                elif key in self._prefetch_keys:
                    self._prefetch_keys.discard(key)
                    self.prefetch_used += 1
            entries.append((url, key, epoch, payload, False))
        return CatalogJob(self, hour, entries)

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
            self._pending[key] = self._pool.apply_async(
                _encode_worker, ((url, hour),)
            )
            self._prefetch_keys.add(key)
            self.prefetch_submitted += 1
            queued += 1
        return queued

    def drain_prefetch(self, block: bool = False) -> int:
        """Move finished speculative renders into the store; returns count."""
        done = 0
        for key, handle in list(self._pending.items()):
            if block or handle.ready():
                data = handle.get()
                if key not in self.store:
                    self.store.put(key, data)
                del self._pending[key]
                self._prefetch_keys.discard(key)
                done += 1
        return done
