"""SMS request front end: batched ingest at carousel scale.

SONIC's uplink is SMS page requests feeding the broadcast carousel
(Section 3.1).  This module turns the one-message-at-a-time simulation
into a request-serving *service*: the vectorised request generator's
trace is cut into per-tick cohorts, a dispatcher coalesces identical
page requests and batches dispatch into the store-backed resolvers
(submitting renders up to :data:`LOOKAHEAD` cohorts ahead when the
resolver has a render pool), a persistent sqlite ledger records every
request's life cycle, and backpressure is explicit when the carousel
saturates.

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
    request_priority: float = 100.0  # matches SchedulerConfig
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
    broadcast_pages: int = 0
    broadcast_requests: int = 0
    batches: int = 0
    ticks: int = 0
    peak_backlog_bytes: int = 0
    peak_deferred: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.submitted / self.batches if self.batches else 0.0

    @property
    def coalesce_ratio(self) -> float:
        return self.coalesced / self.submitted if self.submitted else 0.0


class PageResolver(Protocol):
    """What the dispatcher needs from the page-production layer."""

    urls: list[str]
    store_hits: int
    store_misses: int

    def epoch(self, url_index: int, hour: int) -> int: ...

    def resolve_batch(
        self, url_indices: list[int], hour: int
    ) -> list[tuple[int, int, bool]]:
        """(size_bytes, epoch, from_store) per index, in order."""
        ...


class _HourWindowMemo:
    """A memo dict bounded by simulation time, not entry count.

    Entries remember the hour they were inserted; once the clock moves
    past ``window`` hours beyond an entry's hour, the entry is evicted
    (one O(n) sweep per simulated hour).  Everything memoised here is a
    pure function of its key, so eviction can only cost a re-compute,
    never change an outcome — which is what lets the resolver memos
    survive multi-day traces without unbounded growth.
    """

    def __init__(self, window_hours: float = 24.0) -> None:
        self._data: dict = {}
        self._hour_of: dict = {}
        self._window = max(1, int(window_hours))
        self._swept = -1

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value, hour: int) -> None:
        self._data[key] = value
        self._hour_of[key] = hour
        if hour > self._swept:
            self._swept = hour
            cutoff = hour - self._window
            if cutoff > 0:
                stale = [k for k, h in self._hour_of.items() if h < cutoff]
                for k in stale:
                    del self._data[k]
                    del self._hour_of[k]


class SizeModelResolver:
    """Prices pages via :class:`PageSizeModel` — the million-request path.

    Emulates the :class:`~repro.server.cache.BundleStore` exactly at the
    accounting level: the first resolve of a (url, epoch) pair is a miss
    (a render+encode), every later resolve is a store hit.  ``max_page_bytes``
    caps sizes the same way ``repro stream --max-page-kb`` does, keeping
    short simulated days meaningful at FM rates.  Memos are bounded to
    the catalog expiry window (``expiry_hours``).
    """

    def __init__(
        self,
        generator: SiteGenerator,
        quality: int = 10,
        max_page_bytes: int | None = None,
        expiry_hours: float = 24.0,
    ) -> None:
        self.generator = generator
        self.urls = generator.all_urls()
        self.size_model = PageSizeModel(generator, quality=quality)
        self.max_page_bytes = max_page_bytes
        self.store_hits = 0
        self.store_misses = 0
        self._epochs = _HourWindowMemo(expiry_hours)
        self._sizes = _HourWindowMemo(expiry_hours)

    def epoch(self, url_index: int, hour: int) -> int:
        key = (url_index, hour)
        epoch = self._epochs.get(key)
        if epoch is None:
            epoch = self.generator.effective_epoch(self.urls[url_index], hour)
            self._epochs.put(key, epoch, hour)
        return epoch

    def resolve_batch(
        self, url_indices: list[int], hour: int
    ) -> list[tuple[int, int, bool]]:
        out = []
        for i in url_indices:
            epoch = self.epoch(i, hour)
            key = (i, epoch)
            size = self._sizes.get(key)
            if size is not None:
                self.store_hits += 1
                out.append((size, epoch, True))
                continue
            size = self.size_model.size_at(self.urls[i], epoch)
            if self.max_page_bytes is not None:
                size = min(size, self.max_page_bytes)
            self._sizes.put(key, size, hour)
            self.store_misses += 1
            out.append((size, epoch, False))
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
    while the current hour broadcasts.  Both overlap only with a
    started pool (``pipeline.start()``); without one, a job renders at
    commit time and prefetch is a no-op.
    """

    def __init__(self, pipeline, processes: int | None = None) -> None:
        from repro.server.catalog import CatalogPipeline

        assert isinstance(pipeline, CatalogPipeline)
        self.pipeline = pipeline
        self.processes = processes
        self.urls = pipeline.generator.all_urls()
        self.store_hits = 0
        self.store_misses = 0
        self._epochs = _HourWindowMemo(pipeline.config.expiry_hours)
        self._requested: set[int] = set()

    def epoch(self, url_index: int, hour: int) -> int:
        key = (url_index, hour)
        epoch = self._epochs.get(key)
        if epoch is None:
            epoch = self.pipeline.generator.effective_epoch(
                self.urls[url_index], hour
            )
            self._epochs.put(key, epoch, hour)
        return epoch

    def resolve_batch(
        self, url_indices: list[int], hour: int
    ) -> list[tuple[int, int, bool]]:
        result = self.pipeline.encode_catalog(
            urls=[self.urls[i] for i in url_indices],
            hour=hour,
            processes=self.processes,
        )
        self.store_hits += result.store_hits
        self.store_misses += result.encoded
        return [(len(p.data), p.epoch, p.from_store) for p in result.pages]

    # -- render-ahead hooks ---------------------------------------------------

    def resolve_submit(self, url_indices: list[int], hour: int):
        """Kick off the renders for a cohort; returns a waitable job."""
        self._requested.update(url_indices)
        return self.pipeline.submit_catalog(
            [self.urls[i] for i in url_indices], hour
        )

    def resolve_commit(self, job) -> list[tuple[int, int, bool]]:
        """Harvest a :meth:`resolve_submit` job (same shape as
        :meth:`resolve_batch`); store puts happen here, on the caller's
        thread, in submission order."""
        result = job.result()
        self.store_hits += result.store_hits
        self.store_misses += result.encoded
        return [(len(p.data), p.epoch, p.from_store) for p in result.pages]

    def prefetch_hour(self, hour: int) -> int:
        """Speculatively render previously requested URLs as they appear
        at ``hour`` (misses only — i.e. the epoch rollovers).  Pure store
        warming: it can change hit/miss accounting, never an outcome.
        Only URLs the front end has actually resolved are speculated on,
        so idle-worker time isn't spent on pages nobody asks for."""
        self.pipeline.drain_prefetch(block=False)
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
        self._waiting: dict[int, list[np.ndarray]] = {}  # url_index -> req ids
        self._deferred: deque[tuple[int, int]] = deque()  # (req_id, url_index)
        self._tick = 0  # completed tick boundaries; sim now = _tick * tick_s
        self._prefetched_hour = -1  # last hour handed to prefetch_hour

    @property
    def now(self) -> float:
        return self._tick * self.config.tick_s

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
            self.stats.ticks += 1
            t = self._tick * cfg.tick_s
            for url in finished:
                self._complete(url, t)
            if self._deferred:
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
        arrays = self._waiting.pop(index, None)
        self.stats.broadcast_pages += 1
        if arrays:
            ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
            self.ledger.mark_broadcast(ids, t)
            self.stats.broadcast_requests += int(ids.size)

    def _retry_deferred(self, t: float) -> None:
        """FIFO retry of parked requests; stops at the first still-blocked.

        All distinct parked URLs not already on air resolve in ONE
        ``resolve_batch`` up front (sizes and epochs are pure in
        (url, hour), so resolving ahead of the walk — even past the
        point where it blocks — cannot change any outcome).  The walk
        then replays the seed one-at-a-time decision sequence exactly.
        """
        cfg = self.config
        hour = int(t // 3600)
        resolver = self.resolver
        active = self._active
        deferred = self._deferred
        need: list[int] = []
        seen: set[int] = set()
        for _, index in deferred:
            if index not in seen:
                seen.add(index)
                if active.get(index) != resolver.epoch(index, hour):
                    need.append(index)
        resolved: dict[int, tuple[int, int]] = {}
        if need:
            for u, (size, epoch, _) in zip(need, resolver.resolve_batch(need, hour)):
                resolved[u] = (size, epoch)
        while deferred:
            req_id, index = deferred[0]
            epoch = resolver.epoch(index, hour)
            if active.get(index) == epoch:
                self._attach(index, np.array([req_id], dtype=np.int64))
                self.stats.coalesced -= 1  # attach() counts; retries aren't new
            else:
                size, epoch = resolved[index]
                if (
                    index not in active
                    and self.carousel.backlog_bytes() + size
                    > cfg.max_backlog_bytes
                ):
                    break
                self._enqueue_page(index, epoch, size)
                self._attach(index, np.array([req_id], dtype=np.int64))
                self.stats.coalesced -= 1
            deferred.popleft()
            self.ledger.mark_scheduled(np.array([req_id]), t)
            self.stats.retried += 1

    # -- dispatch ------------------------------------------------------------

    def _attach(self, index: int, ids: np.ndarray) -> None:
        self._waiting.setdefault(index, []).append(ids)
        self.stats.coalesced += int(ids.size)

    def _enqueue_page(self, index: int, epoch: int, size: int) -> None:
        replacing = index in self._active
        self._active[index] = epoch
        self.carousel.enqueue(
            CarouselItem(
                self.resolver.urls[index],
                size,
                priority=self.config.request_priority,
                digest=f"{index}:{epoch}",
            )
        )
        if replacing:
            self.stats.replaced_pages += 1
        else:
            self.stats.enqueued_pages += 1

    def submit_batch(
        self,
        req_ids: np.ndarray,
        url_index: np.ndarray,
        times: np.ndarray,
        resolved: dict[int, tuple[int, int]] | None = None,
    ) -> None:
        """Dispatch one cohort (all arrivals within the current tick).

        Resolution is batched: every URL in the cohort not already on air
        at the current epoch costs exactly one resolve, however many
        requests want it — that is the N-requests-one-render win.  The
        *decisions* (enqueue / attach / defer / shed) then replay in
        strict arrival order, because backpressure state (backlog, the
        deferral buffer) mutates per request; that replay is what makes
        the outcome stream identical for any batch partitioning,
        including the serial one-request cohorts.

        ``resolved`` may carry (size, epoch) pairs computed ahead of
        time by the render-ahead lookahead; everything it resolves is pure in
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
        resolver = self.resolver
        active = self._active

        # One batched resolve per cohort: pure in (url, hour), so *when*
        # it runs relative to the walk below cannot change any outcome.
        if resolved is None:
            resolved = {}  # url -> (size, epoch)
        need = [
            u
            for u in np.unique(url_index).tolist()
            if u not in resolved and active.get(u) != resolver.epoch(u, hour)
        ]
        if need:
            for u, (size, epoch, _) in zip(need, resolver.resolve_batch(need, hour)):
                resolved[u] = (size, epoch)

        # Arrival-order walk.  Outcomes accumulate into per-URL buckets so
        # ledger writes and waiting-list appends stay batched.
        q_ids: dict[int, list] = {}
        q_ts: dict[int, list] = {}
        d_ids: dict[int, list] = {}
        d_ts: dict[int, list] = {}
        s_ids: dict[int, list] = {}
        s_ts: dict[int, list] = {}
        deferred = self._deferred
        backlog_limit = cfg.max_backlog_bytes
        defer_capacity = cfg.defer_capacity
        backlog_bytes = self.carousel.backlog_bytes
        for rid, u, ts in zip(
            req_ids.tolist(), url_index.tolist(), times.tolist()
        ):
            info = resolved.get(u)
            if info is None or active.get(u) == info[1]:
                # On air at the current epoch — either before this cohort
                # (never resolved) or enqueued earlier in this walk.
                q_ids.setdefault(u, []).append(rid)
                q_ts.setdefault(u, []).append(ts)
                stats.coalesced += 1
            elif u in active or backlog_bytes() + info[0] <= backlog_limit:
                # A fresh epoch of an already-queued page replaces it in
                # place (no saturation check: its airtime is already
                # committed); a new page must clear the backlog threshold.
                self._enqueue_page(u, info[1], info[0])
                q_ids.setdefault(u, []).append(rid)
                q_ts.setdefault(u, []).append(ts)
            elif len(deferred) < defer_capacity:
                deferred.append((rid, u))
                stats.deferred += 1
                if len(deferred) > stats.peak_deferred:
                    stats.peak_deferred = len(deferred)
                d_ids.setdefault(u, []).append(rid)
                d_ts.setdefault(u, []).append(ts)
            else:
                stats.shed += 1
                s_ids.setdefault(u, []).append(rid)
                s_ts.setdefault(u, []).append(ts)

        ledger = self.ledger
        for u, rids in q_ids.items():
            self._waiting.setdefault(u, []).append(
                np.asarray(rids, dtype=np.int64)
            )
            ledger.insert(rids, u, q_ts[u], t, t, "queued")
        for u, rids in d_ids.items():
            ledger.insert(rids, u, d_ts[u], t, None, "deferred")
        for u, rids in s_ids.items():
            ledger.insert(rids, u, s_ts[u], t, None, "shed")

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
            resolved: dict[int, tuple[int, int]] = {}
            if job is not None:
                job.wait()
                for u, (size, epoch, _) in zip(need, resolver.resolve_commit(job)):
                    resolved[u] = (size, epoch)
            self.submit_batch(ids, urls, times, resolved=resolved)
            if progress is not None and self.stats.batches % progress_every == 0:
                progress(self)

        for cohort in self._cohorts(trace, 1 if serial else cfg.max_batch):
            need: list[int] = []
            job = None
            if submit is not None:
                k, _, urls, _ = cohort
                hour = int(((k + 1) * cfg.tick_s) // 3600)
                active = self._active
                need = [
                    u
                    for u in np.unique(urls).tolist()
                    if active.get(u) != resolver.epoch(u, hour)
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
            self.carousel.queue_length() or self._deferred
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

    def demand_snapshot(
        self, since: float | None = None, until: float | None = None
    ) -> dict[int, int]:
        """Per-URL demand counts from the ledger (cheap indexed read).

        This is the signal the multi-station :class:`~repro.server.scheduler.
        DemandScheduler` consumes at epoch boundaries: how many requests each
        page drew in a time window, shed and deferred ones included.
        """
        return self.ledger.demand_counts(since=since, until=until)

    def health(self) -> dict[str, float]:
        """Service-health snapshot (the aiosqlite-bot idiom, sim-time)."""
        s = self.stats
        return {
            "sim_hours": self.now / 3600.0,
            "submitted": s.submitted,
            "queue_depth_pages": self.carousel.queue_length(),
            "backlog_mb": self.carousel.backlog_bytes() / 1e6,
            "deferred": len(self._deferred),
            "mean_batch": s.mean_batch_size,
            "coalesce_ratio": s.coalesce_ratio,
            "shed": s.shed,
            "broadcast_requests": s.broadcast_requests,
        }
