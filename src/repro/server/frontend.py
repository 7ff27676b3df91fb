"""SMS request front end: batched ingest at carousel scale.

SONIC's uplink is SMS page requests feeding the broadcast carousel
(Section 3.1).  This module turns the one-message-at-a-time simulation
into a request-serving *service*: the vectorised request generator's
trace is cut into per-tick cohorts, a dispatcher coalesces identical
page requests and batches dispatch into the store-backed resolvers
(submitting renders up to :data:`LOOKAHEAD` cohorts ahead when the
resolver renders pages), the request ledger records every request's
life cycle (journalled to sqlite when opened on a file), and
backpressure is explicit when the carousel saturates.

The dataflow::

    generate_requests -> cohorts -> dedup/coalesce -> resolve batch
        (trace)         (per tick,   (per unique URL)  (BundleStore /
                         in order)                       size model)
                              |                                  |
                              v                                  v
                        RequestLedger  <-  carousel drain  <- enqueue
                      (submit/ack/sched/     (tick clock)    (+ shed /
                       broadcast times)                       deferral)

Determinism: all outcome-changing state (carousel drain, deferred
retries) advances only at tick boundaries, and requests are processed in
arrival order within a tick, so *any* partitioning of the request stream
into dispatch batches — including the degenerate one-request-at-a-time
serial mode — produces a bit-identical ledger.  That is the batched
analogue of the fleet simulator's counter-RNG chunk invariance, and
``tests/test_server_frontend.py`` pins it for every batch size.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np

from repro.server.ledger import LedgerStats, RequestLedger
from repro.server.scheduler import REQUEST_PRIORITY
from repro.sim.workload import PageSizeModel, RequestTrace
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.web.sites import SiteGenerator

__all__ = [
    "FrontendConfig",
    "FrontendStats",
    "FrontendResult",
    "PageResolver",
    "SizeModelResolver",
    "CatalogResolver",
    "RequestFrontend",
]

#: Cohorts whose renders may be in flight ahead of the commit point,
#: when the resolver can start them early (``resolve_submit``).
LOOKAHEAD = 4


@dataclass(frozen=True)
class FrontendConfig:
    """Service knobs: clocking, batching, and backpressure."""

    rate_bps: float = 20_000.0  # carousel drain rate
    tick_s: float = 10.0  # batch window and drain granularity
    max_batch: int = 8192  # requests per dispatch batch
    max_backlog_bytes: int = 4_000_000  # carousel saturation threshold
    defer_capacity: int = 20_000  # parked requests before shedding
    drain_grace_hours: float = 4.0  # post-trace drain horizon
    commit_every_ticks: int = 360  # ledger commit cadence


@dataclass
class FrontendStats:
    """Health and throughput counters, updated as the service runs."""

    submitted: int = 0
    coalesced: int = 0  # requests attached to an already-queued page
    enqueued_pages: int = 0  # new page transmissions scheduled
    replaced_pages: int = 0  # queued page superseded by a fresh epoch
    deferred: int = 0  # requests parked by backpressure
    retried: int = 0  # deferred requests that made it on air
    shed: int = 0  # requests dropped (deferral buffer full)
    broadcast_requests: int = 0
    batches: int = 0
    peak_backlog_bytes: int = 0
    peak_deferred: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.submitted / self.batches if self.batches else 0.0

    @property
    def coalesce_ratio(self) -> float:
        return self.coalesced / self.submitted if self.submitted else 0.0


class PageResolver(Protocol):
    """What the dispatcher needs from the page-production layer.

    ``urls`` is ``generator.all_urls()``: the front end reads a page's
    version from :meth:`SiteGenerator.versions` by the same index.
    """

    generator: SiteGenerator
    urls: list[str]
    store_hits: int
    store_misses: int

    def resolve_batch(self, url_indices: list[int], hour: int) -> list[int]:
        """Encoded size of each indexed page at ``hour``, in order."""
        ...


class SizeModelResolver:
    """Prices pages via :class:`PageSizeModel` — the million-request path.

    Emulates the :class:`~repro.server.cache.BundleStore` exactly at the
    accounting level: the first resolve of a (url, version) pair is a
    miss (a render+encode), every later resolve is a store hit.
    ``max_page_bytes`` caps sizes the same way ``repro stream
    --max-page-kb`` does, keeping short simulated days meaningful at FM
    rates.  Sizes are kept for the run: one per (url, version) it sees.
    """

    def __init__(
        self, generator: SiteGenerator, max_page_bytes: int | None = None
    ) -> None:
        self.generator = generator
        self.urls = generator.all_urls()
        self.size_model = PageSizeModel(generator)
        self.max_page_bytes = max_page_bytes
        self.store_hits = 0
        self.store_misses = 0
        self._sizes: dict[tuple[int, int], int] = {}

    def resolve_batch(self, url_indices: list[int], hour: int) -> list[int]:
        versions = self.generator.versions(hour).tolist()
        out = []
        for i in url_indices:
            key = (i, versions[i])
            size = self._sizes.get(key)
            if size is not None:
                self.store_hits += 1
            else:
                size = self.size_model.size_at(self.urls[i], key[1])
                if self.max_page_bytes is not None:
                    size = min(size, self.max_page_bytes)
                self._sizes[key] = size
                self.store_misses += 1
            out.append(size)
        return out


class CatalogResolver:
    """Real render+encode dispatch through the pooled catalog pipeline.

    Batched misses fan out over the :class:`CatalogPipeline` pool and
    land in its :class:`~repro.server.cache.BundleStore`, so N requests
    for a hot page cost exactly one render+encode — and a warm store
    (an earlier hour, a previous run) costs none.

    It also exposes the hooks the front end uses to render ahead of the
    commit point: :meth:`resolve_submit` / :meth:`resolve_commit` wrap
    :meth:`CatalogPipeline.submit_catalog` jobs, and
    :meth:`prefetch_hour` pre-renders the next hour's epoch rollovers
    while the current hour broadcasts.  The resolver starts the
    pipeline's pool with ``processes`` workers (None: one per core).
    Both hooks overlap rendering only with more than one worker; one
    worker renders each page at the commit that needs it.
    """

    def __init__(self, pipeline, processes: int | None = None) -> None:
        from repro.server.catalog import CatalogPipeline

        assert isinstance(pipeline, CatalogPipeline)
        self.pipeline = pipeline.start(processes)
        self.generator = pipeline.generator
        self.urls = self.generator.all_urls()
        self.store_hits = 0
        self.store_misses = 0
        self._requested: set[int] = set()

    def _harvest(self, result) -> list[int]:
        """Count a finished catalog result's store hits; its page sizes."""
        self.store_hits += result.store_hits
        self.store_misses += result.encoded
        return [len(p.data) for p in result.pages]

    def resolve_batch(self, url_indices: list[int], hour: int) -> list[int]:
        return self._harvest(
            self.pipeline.encode_catalog([self.urls[i] for i in url_indices], hour)
        )

    # -- render-ahead hooks ---------------------------------------------------

    def resolve_submit(self, url_indices: list[int], hour: int):
        """Kick off the renders for a cohort; returns a waitable job."""
        self._requested.update(url_indices)
        return self.pipeline.submit_catalog(
            [self.urls[i] for i in url_indices], hour
        )

    def resolve_commit(self, job) -> list[int]:
        """Harvest a :meth:`resolve_submit` job (same shape as
        :meth:`resolve_batch`); store puts happen here, on the caller's
        thread, in submission order."""
        return self._harvest(job.result())

    def prefetch_hour(self, hour: int) -> int:
        """Speculatively render previously requested URLs as they appear
        at ``hour`` (misses only — i.e. the epoch rollovers).  Pure store
        warming: it can change hit/miss accounting, never an outcome.
        Only URLs the front end has actually resolved are speculated on,
        so idle-worker time isn't spent on pages nobody asks for."""
        self.pipeline.drain_prefetch()
        return self.pipeline.prefetch(
            [self.urls[i] for i in sorted(self._requested)], hour
        )

    def close(self) -> None:
        self.pipeline.close()


@dataclass(frozen=True)
class FrontendResult:
    """Outcome of one :meth:`RequestFrontend.run`."""

    stats: FrontendStats
    ledger_stats: LedgerStats
    n_requests: int
    elapsed_s: float
    store_hits: int
    store_misses: int

    @property
    def requests_per_s(self) -> float:
        return self.n_requests / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def served_fraction(self) -> float:
        if self.n_requests == 0:
            return 0.0
        return self.ledger_stats.n_broadcast / self.n_requests

    @property
    def p50_latency_s(self) -> float:
        return self.ledger_stats.percentile(50.0)

    @property
    def p90_latency_s(self) -> float:
        return self.ledger_stats.percentile(90.0)

    @property
    def p99_latency_s(self) -> float:
        return self.ledger_stats.percentile(99.0)


class RequestFrontend:
    """Batched request-serving service over one transmitter's carousel."""

    def __init__(
        self,
        resolver: PageResolver,
        config: FrontendConfig = FrontendConfig(),
        ledger: RequestLedger | None = None,
    ) -> None:
        self.resolver = resolver
        self.config = config
        self.ledger = ledger if ledger is not None else RequestLedger()
        self.carousel = BroadcastCarousel(config.rate_bps)
        self.stats = FrontendStats()
        self._url_to_index = {u: i for i, u in enumerate(resolver.urls)}
        self._active: dict[int, int] = {}  # url_index -> queued epoch
        # url_index -> ids of the requests waiting for its broadcast; the
        # same keys as _active.
        self._waiting: dict[int, list[int]] = {}
        # The waiting lists of the pages on air at their version of
        # _live_hour: the pages a request of that hour coalesces onto.
        self._live: dict[int, list[int]] = {}
        self._live_hour = -1
        # Parked requests as (req_id, url_index), oldest first.
        self._parked: deque[tuple[int, int]] = deque()
        self._tick = 0  # completed tick boundaries; sim now = _tick * tick_s
        self._prefetched_hour = -1  # last hour handed to prefetch_hour

    @property
    def now(self) -> float:
        return self._tick * self.config.tick_s

    def _versions(self, hour: int) -> list[int]:
        """Every page's version at ``hour``, indexed like ``resolver.urls``."""
        return self.resolver.generator.versions(hour).tolist()

    def _on_air(self, hour: int, versions: list[int]) -> dict[int, list[int]]:
        """The waiting lists of the pages on air at their version of ``hour``.

        Kept between calls: the hour's first call builds it from
        ``_active``, and enqueues and completions keep it up to date.
        """
        if hour != self._live_hour:
            waiting = self._waiting
            self._live = {
                u: waiting[u]
                for u, epoch in self._active.items()
                if epoch == versions[u]
            }
            self._live_hour = hour
        return self._live

    # -- tick clock ------------------------------------------------------------

    def advance_to_tick(self, tick: int) -> None:
        """Drain the carousel tick by tick up to ``tick`` boundaries.

        Every boundary completes due transmissions (stamping broadcast
        times in the ledger) and then retries deferred requests, so the
        outcome stream is a pure function of the tick clock — never of
        how the ingest was batched.
        """
        cfg = self.config
        while self._tick < tick:
            finished = self.carousel.drain(cfg.tick_s)
            self._tick += 1
            t = self._tick * cfg.tick_s
            for url in finished:
                self._complete(url, t)
            if self._parked:
                self._retry_deferred(t)
            # While hour h broadcasts, idle workers pre-render the pages
            # whose epoch rolls over at h+1 — store warming only, so
            # serial and batched runs yield the same outcomes.
            hour = int(t // 3600)
            if hour > self._prefetched_hour:
                self._prefetched_hour = hour
                prefetch_hour = getattr(self.resolver, "prefetch_hour", None)
                if prefetch_hour is not None:
                    prefetch_hour(hour + 1)
            backlog = self.carousel.backlog_bytes()
            if backlog > self.stats.peak_backlog_bytes:
                self.stats.peak_backlog_bytes = backlog
            if self._tick % cfg.commit_every_ticks == 0:
                self.ledger.commit()

    def _complete(self, url: str, t: float) -> None:
        index = self._url_to_index[url]
        self._active.pop(index, None)
        self._live.pop(index, None)
        ids = self._waiting.pop(index, None)
        if ids:
            self.ledger.mark_broadcast(ids, t)
            self.stats.broadcast_requests += len(ids)

    def _retry_deferred(self, t: float) -> None:
        """FIFO retry of parked requests; stops at the first still-blocked.

        The walk starts at the oldest parked request.  One whose page is
        on air at its version joins the page's waiting list.  Any other
        page is resolved where the walk first meets it (sizes are pure
        in (url, version), so no earlier resolve could change an
        outcome) and enqueued, unless it is new and the backlog cannot
        take it: there the walk stops, and the requests before that
        point are the ones retried.  A tick whose oldest parked request
        is still blocked costs one resolve.
        """
        cfg = self.config
        hour = int(t // 3600)
        versions = self._versions(hour)
        live = self._on_air(hour, versions)
        parked = self._parked
        retried: list[int] = []
        for rid, u in parked:
            waiting = live.get(u)
            if waiting is None:
                [size] = self.resolver.resolve_batch([u], hour)
                if (
                    u not in self._active
                    and self.carousel.backlog_bytes() + size > cfg.max_backlog_bytes
                ):
                    break
                self._enqueue_page(u, versions[u], size)
                waiting = live[u]
            waiting.append(rid)
            retried.append(rid)
        if not retried:
            return
        for _ in retried:
            parked.popleft()
        self.ledger.mark_scheduled(retried, t)
        self.stats.retried += len(retried)

    # -- dispatch ------------------------------------------------------------

    def _enqueue_page(self, index: int, epoch: int, size: int) -> None:
        """Put a page on air at ``epoch``, its version at the current hour,
        in place of a queued older version; its waiting list goes live."""
        waiting = self._waiting.get(index)
        if waiting is None:
            waiting = self._waiting[index] = []
            self.stats.enqueued_pages += 1
        else:
            self.stats.replaced_pages += 1
        self._active[index] = epoch
        self._live[index] = waiting
        self.carousel.enqueue(
            CarouselItem(
                self.resolver.urls[index],
                size,
                priority=REQUEST_PRIORITY,
                digest=f"{index}:{epoch}",
            )
        )

    def submit_batch(
        self,
        req_ids: np.ndarray,
        url_index: np.ndarray,
        times: np.ndarray,
        resolved: dict[int, int] | None = None,
    ) -> None:
        """Dispatch one cohort (all arrivals within the current tick).

        Resolution is batched: every URL in the cohort not already on air
        at its current version costs exactly one resolve, however many
        requests want it — that is the N-requests-one-render win.  The
        *decisions* (enqueue / attach / defer / shed) then replay in
        strict arrival order, because backpressure state (backlog, the
        deferral buffer) mutates per request; that replay is what makes
        the outcome stream identical for any batch partitioning,
        including the serial one-request cohorts.  A request whose page
        is on air costs one lookup and one append to the page's waiting
        list, and the ledger takes one insert per outcome.

        ``resolved`` may carry URL -> size entries computed ahead of time
        by the render-ahead lookahead; everything it resolves is pure in
        (url, hour), so a speculative superset is harmless and any URL
        it missed is topped up synchronously here.
        """
        cfg = self.config
        t = self.now
        hour = int(t // 3600)
        n = int(req_ids.size)
        stats = self.stats
        stats.submitted += n
        stats.batches += 1
        versions = self._versions(hour)
        live = self._on_air(hour, versions)
        urls = url_index.tolist()

        # One batched resolve per cohort: pure in (url, hour), so *when*
        # it runs relative to the walk below cannot change any outcome.
        if resolved is None:
            resolved = {}
        need = sorted(u for u in set(urls) if u not in live and u not in resolved)
        if need:
            resolved.update(zip(need, self.resolver.resolve_batch(need, hour)))

        # Arrival-order walk.  Only a request whose page is off air can
        # change state; deferred and shed requests are kept by position.
        ids = req_ids.tolist()
        active = self._active
        parked = self._parked
        backlog_limit = cfg.max_backlog_bytes
        defer_capacity = cfg.defer_capacity
        backlog_bytes = self.carousel.backlog_bytes
        enqueued = 0
        deferred: list[int] = []
        shed: list[int] = []
        for i, u in enumerate(urls):
            waiting = live.get(u)
            if waiting is None:
                if u in active or backlog_bytes() + resolved[u] <= backlog_limit:
                    # A fresh version of an already-queued page replaces
                    # it in place (no saturation check: its airtime is
                    # already committed); a new page must clear the
                    # backlog threshold.
                    self._enqueue_page(u, versions[u], resolved[u])
                    waiting = live[u]
                    enqueued += 1
                elif len(parked) < defer_capacity:
                    parked.append((ids[i], u))
                    deferred.append(i)
                    continue
                else:
                    shed.append(i)
                    continue
            waiting.append(ids[i])

        stats.coalesced += n - enqueued - len(deferred) - len(shed)
        stats.deferred += len(deferred)
        stats.shed += len(shed)
        if len(parked) > stats.peak_deferred:
            stats.peak_deferred = len(parked)
        ledger = self.ledger
        if not (deferred or shed):
            ledger.insert(req_ids, url_index, times, t, t, "queued")
            return
        queued = np.ones(n, dtype=bool)
        for rows, status in ((deferred, "deferred"), (shed, "shed")):
            if rows:
                queued[rows] = False
                ledger.insert(
                    req_ids[rows], url_index[rows], times[rows], t, None, status
                )
        if queued.any():
            ledger.insert(
                req_ids[queued], url_index[queued], times[queued], t, t, "queued"
            )

    # -- drivers ------------------------------------------------------------

    def _cohorts(
        self, trace: RequestTrace, max_batch: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Slice the trace into per-tick cohorts of at most ``max_batch``."""
        times = trace.times
        n = times.size
        if n == 0:
            return
        ticks = (times // self.config.tick_s).astype(np.int64)
        req_ids = np.arange(n, dtype=np.int64)
        boundaries = np.flatnonzero(np.diff(ticks)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for s, e in zip(starts, ends):
            k = int(ticks[s])
            for b in range(int(s), int(e), max_batch):
                c = min(b + max_batch, int(e))
                yield k, req_ids[b:c], trace.url_index[b:c], times[b:c]

    def _drive(
        self, trace: RequestTrace, serial: bool, progress, progress_every
    ) -> None:
        """Serve the trace: read cohorts, render ahead, commit in order.

        When the resolver has ``resolve_submit``, each cohort's
        speculative need-set (URLs not on air at its hour, judged before
        the earlier in-flight cohorts commit) goes to the render pool as
        soon as the cohort is read, and up to :data:`LOOKAHEAD` cohorts
        stay in flight.  Commits run oldest-first: advance the tick
        clock to the cohort's boundary, wait for its renders, harvest
        them, dispatch.  Everything resolved ahead is pure in
        (url, hour) and :meth:`submit_batch` tops up whatever the guess
        missed, so the ledger is the serial one.  ``serial=True`` is this
        loop with one-request cohorts and no lookahead.
        """
        cfg = self.config
        resolver = self.resolver
        submit = None if serial else getattr(resolver, "resolve_submit", None)
        lookahead = LOOKAHEAD if submit is not None else 0
        inflight: deque = deque()

        def commit() -> None:
            (k, ids, urls, times), need, job = inflight.popleft()
            # Cohort k holds arrivals in [k*T, (k+1)*T): the batch window
            # closes — and dispatch happens — at the (k+1) boundary.
            self.advance_to_tick(k + 1)
            resolved: dict[int, int] = {}
            if job is not None:
                job.wait()
                resolved = dict(zip(need, resolver.resolve_commit(job)))
            self.submit_batch(ids, urls, times, resolved=resolved)
            if progress is not None and self.stats.batches % progress_every == 0:
                progress(self)

        for cohort in self._cohorts(trace, 1 if serial else cfg.max_batch):
            need: list[int] = []
            job = None
            if submit is not None:
                k, _, urls, _ = cohort
                hour = int(((k + 1) * cfg.tick_s) // 3600)
                versions = self._versions(hour)
                active = self._active
                need = [
                    u
                    for u in np.unique(urls).tolist()
                    if active.get(u) != versions[u]
                ]
                if need:
                    job = submit(need, hour)
            inflight.append((cohort, need, job))
            if len(inflight) > lookahead:
                commit()
        while inflight:
            commit()

    def finish(self, trace: RequestTrace) -> None:
        """Drain queued work after the last arrival, bounded by the grace
        horizon so an oversized head-of-line page cannot spin forever."""
        cfg = self.config
        horizon = math.ceil(
            (trace.duration_s + cfg.drain_grace_hours * 3600.0) / cfg.tick_s
        )
        while (
            self.carousel.queue_length() or self._parked
        ) and self._tick < horizon:
            self.advance_to_tick(self._tick + 1)
        self.ledger.commit()

    def run(
        self,
        trace: RequestTrace,
        serial: bool = False,
        progress=None,
        progress_every: int = 500,
    ) -> FrontendResult:
        """Serve a whole trace; ``serial=True`` is the one-at-a-time
        reference whose ledger the batched run must reproduce exactly."""
        if trace.n_pages > len(self.resolver.urls):
            raise ValueError(
                f"trace draws from {trace.n_pages} pages but the resolver "
                f"serves only {len(self.resolver.urls)} URLs"
            )
        t0 = time.perf_counter()
        self._drive(trace, serial, progress, progress_every)
        self.finish(trace)
        elapsed = time.perf_counter() - t0
        return FrontendResult(
            stats=self.stats,
            ledger_stats=self.ledger.stats(),
            n_requests=trace.n_requests,
            elapsed_s=elapsed,
            store_hits=self.resolver.store_hits,
            store_misses=self.resolver.store_misses,
        )

    def health(self) -> dict[str, float]:
        """Service-health snapshot at the current sim time: queue depth,
        backlog, deferrals and throughput counters."""
        s = self.stats
        return {
            "sim_hours": self.now / 3600.0,
            "submitted": s.submitted,
            "queue_depth_pages": self.carousel.queue_length(),
            "backlog_mb": self.carousel.backlog_bytes() / 1e6,
            "deferred": len(self._parked),
            "mean_batch": s.mean_batch_size,
            "coalesce_ratio": s.coalesce_ratio,
            "shed": s.shed,
            "broadcast_requests": s.broadcast_requests,
        }
