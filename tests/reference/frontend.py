"""Reference for the front end's retry of parked requests.

``RescanFrontend`` keeps every parked request in one FIFO and, on each
tick, walks the whole FIFO to find the distinct parked URLs, then
retries request by request, oldest first, until one is still blocked.
:class:`~repro.server.frontend.RequestFrontend` keeps its parked
requests per URL and visits each URL once per tick; tests pin it to
this walk by ledger digest, stats and resolver counters.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.server.frontend import RequestFrontend


class RescanFrontend(RequestFrontend):
    """The front end with a single FIFO of parked requests."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fifo: deque[tuple[int, int]] = deque()  # (req_id, url_index)

    def _park(self, req_id: int, index: int) -> None:
        self._fifo.append((req_id, index))
        self._n_deferred += 1

    def _attach(self, index: int, ids: np.ndarray) -> None:
        self._waiting.setdefault(index, []).append(ids)
        self.stats.coalesced += int(ids.size)

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
        versions = self._versions(hour)
        active = self._active
        deferred = self._fifo
        need: list[int] = []
        seen: set[int] = set()
        for _, index in deferred:
            if index not in seen:
                seen.add(index)
                if active.get(index) != versions[index]:
                    need.append(index)
        resolved: dict[int, tuple[int, int]] = {}
        if need:
            for u, size in zip(need, resolver.resolve_batch(need, hour)):
                resolved[u] = (size, versions[u])
        while deferred:
            req_id, index = deferred[0]
            epoch = versions[index]
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
            self._n_deferred -= 1
            self.ledger.mark_scheduled(np.array([req_id]), t)
            self.stats.retried += 1
