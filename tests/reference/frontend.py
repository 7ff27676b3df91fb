"""Reference for the front end's handling of parked requests.

``ResolveAheadFrontend`` is the request front end as it was before its
parked requests became one FIFO walked to its block point.  It keeps
them per URL, each behind a park sequence number; every retry tick
re-sorts the parked URLs by their oldest entry, resolves every one not
on air in one ``resolve_batch`` ahead of the walk, and retries the
prefix of park order before the first still-blocked URL.  Its cohort
walk buckets outcomes per URL and writes one ledger insert per
(URL, outcome).  :class:`~repro.server.frontend.RequestFrontend` must
give the same ledger, every :class:`FrontendStats` field and the same
``health()``, while resolving no more than this class does.

It serves resolvers without render-ahead hooks (``SizeModelResolver``),
which is all the tests drive it with, so the lookahead and prefetch of
``CatalogResolver`` are left out.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.server.frontend import FrontendConfig, FrontendResult, FrontendStats
from repro.server.ledger import RequestLedger
from repro.server.scheduler import REQUEST_PRIORITY
from repro.transport.carousel import BroadcastCarousel, CarouselItem


class ResolveAheadFrontend:
    """The front end with per-URL parking and resolve-ahead retries."""

    def __init__(self, resolver, config=FrontendConfig(), ledger=None) -> None:
        self.resolver = resolver
        self.config = config
        self.ledger = ledger if ledger is not None else RequestLedger()
        self.carousel = BroadcastCarousel(config.rate_bps)
        self.stats = FrontendStats()
        self._url_to_index = {u: i for i, u in enumerate(resolver.urls)}
        self._active: dict[int, int] = {}  # url_index -> queued epoch
        self._waiting: dict[int, list[np.ndarray]] = {}  # url_index -> req ids
        # Parked requests per URL, oldest first, as (park seq, req_id).
        self._deferred: dict[int, deque[tuple[int, int]]] = {}
        self._n_deferred = 0
        self._park_seq = 0
        self._tick = 0

    @property
    def now(self) -> float:
        return self._tick * self.config.tick_s

    def _versions(self, hour: int) -> list[int]:
        return self.resolver.generator.versions(hour).tolist()

    def advance_to_tick(self, tick: int) -> None:
        cfg = self.config
        while self._tick < tick:
            finished = self.carousel.drain(cfg.tick_s)
            self._tick += 1
            t = self._tick * cfg.tick_s
            for url in finished:
                self._complete(url, t)
            if self._n_deferred:
                self._retry_deferred(t)
            backlog = self.carousel.backlog_bytes()
            if backlog > self.stats.peak_backlog_bytes:
                self.stats.peak_backlog_bytes = backlog
            if self._tick % cfg.commit_every_ticks == 0:
                self.ledger.commit()

    def _complete(self, url: str, t: float) -> None:
        index = self._url_to_index[url]
        self._active.pop(index, None)
        arrays = self._waiting.pop(index, None)
        if arrays:
            ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
            self.ledger.mark_broadcast(ids, t)
            self.stats.broadcast_requests += int(ids.size)

    def _retry_deferred(self, t: float) -> None:
        """Visit each parked URL once, in the order of its oldest parked
        request, after resolving every one not on air; stop at the first
        that is blocked and retry the requests parked before it."""
        cfg = self.config
        hour = int(t // 3600)
        versions = self._versions(hour)
        active = self._active
        parked = self._deferred
        order = sorted(parked, key=lambda u: parked[u][0][0])
        need = [u for u in order if active.get(u) != versions[u]]
        sizes: dict[int, int] = {}
        if need:
            sizes = dict(zip(need, self.resolver.resolve_batch(need, hour)))
        stop = math.inf  # park seq of the oldest request still blocked
        walked: list[int] = []
        for u in order:
            epoch = versions[u]
            if active.get(u) != epoch:
                size = sizes[u]
                if (
                    u not in active
                    and self.carousel.backlog_bytes() + size > cfg.max_backlog_bytes
                ):
                    stop = parked[u][0][0]
                    break
                self._enqueue_page(u, epoch, size)
            walked.append(u)
        if not walked:
            return
        retried: list[np.ndarray] = []
        for u in walked:
            fifo = parked[u]
            rids = []
            while fifo and fifo[0][0] < stop:
                rids.append(fifo.popleft()[1])
            if not fifo:
                del parked[u]
            retried.append(np.array(rids, dtype=np.int64))
            self._waiting.setdefault(u, []).append(retried[-1])
        ids = np.concatenate(retried)
        self.ledger.mark_scheduled(ids, t)
        self._n_deferred -= ids.size
        self.stats.retried += int(ids.size)

    def _park(self, req_id: int, index: int) -> None:
        self._park_seq += 1
        self._n_deferred += 1
        fifo = self._deferred.get(index)
        if fifo is None:
            fifo = self._deferred[index] = deque()
        fifo.append((self._park_seq, req_id))

    def _enqueue_page(self, index: int, epoch: int, size: int) -> None:
        replacing = index in self._active
        self._active[index] = epoch
        self.carousel.enqueue(
            CarouselItem(
                self.resolver.urls[index],
                size,
                priority=REQUEST_PRIORITY,
                digest=f"{index}:{epoch}",
            )
        )
        if replacing:
            self.stats.replaced_pages += 1
        else:
            self.stats.enqueued_pages += 1

    def submit_batch(self, req_ids, url_index, times) -> None:
        """Resolve the cohort's URLs not on air in one call, then walk it
        in arrival order, bucketing outcomes per URL."""
        cfg = self.config
        t = self.now
        hour = int(t // 3600)
        stats = self.stats
        stats.submitted += int(req_ids.size)
        stats.batches += 1
        versions = self._versions(hour)
        active = self._active
        need = [
            u for u in np.unique(url_index).tolist() if active.get(u) != versions[u]
        ]
        resolved: dict[int, int] = {}
        if need:
            resolved.update(zip(need, self.resolver.resolve_batch(need, hour)))

        q_ids: dict[int, list] = {}
        q_ts: dict[int, list] = {}
        d_ids: dict[int, list] = {}
        d_ts: dict[int, list] = {}
        s_ids: dict[int, list] = {}
        s_ts: dict[int, list] = {}
        for rid, u, ts in zip(req_ids.tolist(), url_index.tolist(), times.tolist()):
            if active.get(u) == versions[u]:
                q_ids.setdefault(u, []).append(rid)
                q_ts.setdefault(u, []).append(ts)
                stats.coalesced += 1
            elif (
                u in active
                or self.carousel.backlog_bytes() + resolved[u] <= cfg.max_backlog_bytes
            ):
                self._enqueue_page(u, versions[u], resolved[u])
                q_ids.setdefault(u, []).append(rid)
                q_ts.setdefault(u, []).append(ts)
            elif self._n_deferred < cfg.defer_capacity:
                self._park(rid, u)
                stats.deferred += 1
                if self._n_deferred > stats.peak_deferred:
                    stats.peak_deferred = self._n_deferred
                d_ids.setdefault(u, []).append(rid)
                d_ts.setdefault(u, []).append(ts)
            else:
                stats.shed += 1
                s_ids.setdefault(u, []).append(rid)
                s_ts.setdefault(u, []).append(ts)

        for u, rids in q_ids.items():
            self._waiting.setdefault(u, []).append(np.asarray(rids, dtype=np.int64))
            self.ledger.insert(rids, u, q_ts[u], t, t, "queued")
        for u, rids in d_ids.items():
            self.ledger.insert(rids, u, d_ts[u], t, None, "deferred")
        for u, rids in s_ids.items():
            self.ledger.insert(rids, u, s_ts[u], t, None, "shed")

    def _cohorts(self, trace, max_batch: int):
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

    def run(self, trace, serial: bool = False) -> FrontendResult:
        cfg = self.config
        for k, ids, urls, times in self._cohorts(trace, 1 if serial else cfg.max_batch):
            self.advance_to_tick(k + 1)
            self.submit_batch(ids, urls, times)
        horizon = math.ceil(
            (trace.duration_s + cfg.drain_grace_hours * 3600.0) / cfg.tick_s
        )
        while (
            self.carousel.queue_length() or self._n_deferred
        ) and self._tick < horizon:
            self.advance_to_tick(self._tick + 1)
        self.ledger.commit()
        return FrontendResult(
            stats=self.stats,
            ledger_stats=self.ledger.stats(),
            n_requests=trace.n_requests,
            elapsed_s=0.0,
            store_hits=self.resolver.store_hits,
            store_misses=self.resolver.store_misses,
        )

    def health(self) -> dict[str, float]:
        s = self.stats
        return {
            "sim_hours": self.now / 3600.0,
            "submitted": s.submitted,
            "queue_depth_pages": self.carousel.queue_length(),
            "backlog_mb": self.carousel.backlog_bytes() / 1e6,
            "deferred": self._n_deferred,
            "mean_batch": s.mean_batch_size,
            "coalesce_ratio": s.coalesce_ratio,
            "shed": s.shed,
            "broadcast_requests": s.broadcast_requests,
        }
