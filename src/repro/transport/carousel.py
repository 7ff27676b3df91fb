"""Broadcast carousel: what the FM transmitter actually sends, in order.

The SONIC server enqueues pages (user requests first, then the popular
pages it pushes preemptively); the transmitter drains the queue at the
channel rate.  Figure 4(c) is exactly this queue's backlog over time, so
the carousel exposes byte-accurate accounting: ``enqueue`` on content
change, ``drain(seconds)`` per simulation step, ``backlog_bytes`` as the
plotted quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.transport.framing import FRAME_SIZE, Frame

__all__ = ["CarouselItem", "BroadcastCarousel"]


@dataclass
class CarouselItem:
    """One queued page transmission."""

    url: str
    size_bytes: int
    priority: float = 0.0  # higher drains first; requests outrank pushes
    enqueued_at: float = 0.0  # simulation time, seconds
    frames: list[Frame] | None = None  # present in frame-level simulations
    digest: str | None = None  # payload content digest (broadcast cache key)
    sent_bytes: int = 0
    frames_sent: int = 0

    @property
    def remaining_bytes(self) -> int:
        return max(0, self.size_bytes - self.sent_bytes)


class BroadcastCarousel:
    """Priority-ordered transmission queue with byte-rate draining."""

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self._queue: list[CarouselItem] = []
        self._backlog = 0  # unsent bytes, kept in lockstep with _queue
        self.total_sent_bytes = 0
        self.completed: list[tuple[str, float]] = []  # (url, completion time)
        self._now = 0.0

    # -- queue management ------------------------------------------------------------

    def enqueue(self, item: CarouselItem) -> None:
        """Queue a page; a newer version of the same URL replaces the old.

        Replacement models the server behaviour in Section 3.1: there is
        no point broadcasting a stale screenshot once a fresh render of
        the same page exists.  A *repeat* request for the byte-identical
        version (two users asking for the same page) must not restart
        the transmission — it only raises the queue priority.
        """
        existing = next((q for q in self._queue if q.url == item.url), None)
        if existing is not None and self._same_version(existing, item):
            existing.priority = max(existing.priority, item.priority)
            self._queue.sort(key=lambda q: (-q.priority, q.enqueued_at))
            return
        item.enqueued_at = self._now
        if existing is not None:
            self._backlog -= existing.remaining_bytes
            self._queue = [q for q in self._queue if q.url != item.url]
        self._backlog += item.remaining_bytes
        self._queue.append(item)
        self._queue.sort(key=lambda q: (-q.priority, q.enqueued_at))

    @staticmethod
    def _same_version(a: CarouselItem, b: CarouselItem) -> bool:
        """Two queued items carry the identical render of a page."""
        if a.digest is not None and b.digest is not None:
            # Content digests (from the broadcast encode cache) settle
            # identity exactly, without touching the frame lists.
            return a.digest == b.digest
        if a.size_bytes != b.size_bytes:
            return False
        if a.frames is None or b.frames is None:
            return a.frames is b.frames
        if len(a.frames) != len(b.frames):
            return False
        # Bundle frames carry the content version in the col field.
        return a.frames[0].header.col == b.frames[0].header.col

    def backlog_bytes(self) -> int:
        """Unsent bytes across the queue — Figure 4(c)'s y-axis.

        Maintained incrementally (enqueue/drain/emit update it in place)
        so the request front end can consult it per batch at O(1).
        """
        return self._backlog

    def queue_length(self) -> int:
        return len(self._queue)

    def head(self) -> CarouselItem | None:
        return self._queue[0] if self._queue else None

    # -- time advancement ------------------------------------------------------------

    def drain(self, seconds: float) -> list[str]:
        """Advance time, sending at the configured rate.

        Returns the URLs whose transmission completed in this step.
        """
        if seconds < 0:
            raise ValueError("cannot drain negative time")
        budget = int(seconds * self.rate_bps / 8)
        finished: list[str] = []
        while budget > 0 and self._queue:
            item = self._queue[0]
            take = min(budget, item.remaining_bytes)
            item.sent_bytes += take
            budget -= take
            self.total_sent_bytes += take
            self._backlog -= take
            if item.remaining_bytes == 0:
                finished.append(item.url)
                self.completed.append((item.url, self._now + seconds))
                self._queue.pop(0)
        self._now += seconds
        return finished

    def advance_time(self, seconds: float) -> None:
        """Advance the carousel clock without draining any bytes.

        The streaming transmitter drains via :meth:`emit_frames` as the
        modem consumes payloads; this keeps completion timestamps and
        ``enqueued_at`` ordering consistent with the audio clock.
        """
        if seconds < 0:
            raise ValueError("cannot advance negative time")
        self._now += seconds

    def eta_seconds(self, url: str) -> float | None:
        """Estimated completion time for a queued URL.

        This is what the server quotes back to a requesting user via SMS
        (Section 3.1).  None when the URL is not queued.
        """
        ahead = 0
        for item in self._queue:
            ahead += item.remaining_bytes
            if item.url == url:
                return ahead * 8 / self.rate_bps
        return None

    # -- frame-level emission (end-to-end simulations) -------------------------

    def emit_frames(self, max_frames: int) -> Iterator[tuple[str, Frame]]:
        """Yield up to ``max_frames`` (url, frame) pairs from the queue head.

        Only items that carry actual frames participate; accounting stays
        consistent with :meth:`drain`.
        """
        emitted = 0
        while emitted < max_frames and self._queue:
            item = self._queue[0]
            if item.frames is None:
                raise ValueError(f"item {item.url} has no frame payloads")
            if item.frames_sent >= len(item.frames):
                self._backlog -= item.remaining_bytes
                self.completed.append((item.url, self._now))
                self._queue.pop(0)
                continue
            yield item.url, item.frames[item.frames_sent]
            item.frames_sent += 1
            # Keep the byte accounting (backlog, ETAs) consistent with
            # the frame progress.
            sent_before = item.sent_bytes
            item.sent_bytes = min(
                item.size_bytes,
                int(item.size_bytes * item.frames_sent / len(item.frames)),
            )
            self._backlog -= item.sent_bytes - sent_before
            self.total_sent_bytes += FRAME_SIZE
            emitted += 1
            if item.frames_sent >= len(item.frames):
                self._backlog -= item.remaining_bytes
                item.sent_bytes = item.size_bytes
                self.completed.append((item.url, self._now))
                self._queue.pop(0)
