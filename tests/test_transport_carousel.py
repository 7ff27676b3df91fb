"""Broadcast carousel: ordering, draining, ETAs, frame emission."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.scheduler import REQUEST_PRIORITY
from repro.transport.bundle import BundleTransport
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.transport.framing import FRAME_SIZE, PAYLOAD_SIZE
from tests.reference.carousel import BroadcastCarouselRef


class TestQueue:
    def test_priority_ordering(self):
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("low.pk/", 1_000, priority=1))
        car.enqueue(CarouselItem("high.pk/", 1_000, priority=9))
        assert car.head().url == "high.pk/"

    def test_fifo_within_priority(self):
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1))
        car.drain(0.0)  # advance bookkeeping only
        car.enqueue(CarouselItem("b.pk/", 1_000, priority=1))
        assert car.head().url == "a.pk/"

    def test_newer_version_replaces(self):
        """A fresh render of the same URL supersedes the stale one."""
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1))
        car.enqueue(CarouselItem("a.pk/", 2_000, priority=1))
        assert car.queue_length() == 1
        assert car.backlog_bytes() == 2_000

    def test_repeat_request_keeps_progress(self):
        """A second request for the identical version must not restart
        the in-flight transmission — only raise its priority."""
        bt = BundleTransport()
        frames = bt.chunk(bytes(1_000), page_id=1, version=7)
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1, frames=frames))
        list(car.emit_frames(4))
        sent_before = car.head().frames_sent
        assert sent_before == 4
        same = bt.chunk(bytes(1_000), page_id=1, version=7)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=9, frames=same))
        assert car.queue_length() == 1
        assert car.head().frames_sent == sent_before  # progress preserved
        assert car.head().priority == 9

    def test_new_version_does_restart(self):
        bt = BundleTransport()
        v1 = bt.chunk(bytes(1_000), page_id=1, version=1)
        v2 = bt.chunk(bytes(1_000), page_id=1, version=2)
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1, frames=v1))
        list(car.emit_frames(4))
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1, frames=v2))
        assert car.head().frames_sent == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            BroadcastCarousel(0)


class TestDrain:
    def test_rate_accounting(self):
        car = BroadcastCarousel(8_000)  # 1000 bytes/s
        car.enqueue(CarouselItem("a.pk/", 5_000))
        car.drain(2.0)
        assert car.backlog_bytes() == 3_000

    def test_completion_order_and_times(self):
        car = BroadcastCarousel(8_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=2))
        car.enqueue(CarouselItem("b.pk/", 1_000, priority=1))
        done = car.drain(10.0)
        assert done == ["a.pk/", "b.pk/"]
        assert car.backlog_bytes() == 0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            BroadcastCarousel(1_000).drain(-1)


class TestEta:
    def test_eta_accounts_for_queue_ahead(self):
        car = BroadcastCarousel(8_000)  # 1 kB/s
        car.enqueue(CarouselItem("first.pk/", 2_000, priority=5))
        car.enqueue(CarouselItem("second.pk/", 3_000, priority=1))
        assert car.eta_seconds("first.pk/") == pytest.approx(2.0)
        assert car.eta_seconds("second.pk/") == pytest.approx(5.0)

    def test_eta_unknown_url(self):
        assert BroadcastCarousel(1_000).eta_seconds("x.pk/") is None

    def test_eta_shrinks_after_drain(self):
        car = BroadcastCarousel(8_000)
        car.enqueue(CarouselItem("a.pk/", 4_000))
        before = car.eta_seconds("a.pk/")
        car.drain(1.0)
        assert car.eta_seconds("a.pk/") < before


class TestFrameEmission:
    def test_emits_all_frames_exactly_once(self):
        bt = BundleTransport()
        data = bytes(range(256)) * 3
        frames = bt.chunk(data, page_id=1)
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", len(data), frames=frames))
        emitted = list(car.emit_frames(1_000))
        assert len(emitted) == len(frames)
        assert bt.reassemble([f for _, f in emitted]) == data
        assert car.queue_length() == 0

    def test_emission_respects_budget(self):
        bt = BundleTransport()
        frames = bt.chunk(bytes(2_000), page_id=1)
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 2_000, frames=frames))
        first = list(car.emit_frames(5))
        assert len(first) == 5
        rest = list(car.emit_frames(1_000))
        assert len(first) + len(rest) == len(frames)

    def test_frameless_item_raises(self):
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000))
        with pytest.raises(ValueError):
            list(car.emit_frames(1))

    def test_backlog_consistent_during_emission(self):
        bt = BundleTransport()
        frames = bt.chunk(bytes(1_000), page_id=1)
        car = BroadcastCarousel(10_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, frames=frames))
        list(car.emit_frames(len(frames) // 2))
        assert 0 < car.backlog_bytes() < 1_000

    def test_queued_items_is_a_snapshot(self):
        car = BroadcastCarousel(8_000)
        car.enqueue(CarouselItem("a.pk/", 1_000, priority=1))
        car.enqueue(CarouselItem("b.pk/", 1_000, priority=2))
        snapshot = car.queued_items()
        assert [item.url for item in snapshot] == ["b.pk/", "a.pk/"]
        car.drain(1.0)
        car.enqueue(CarouselItem("c.pk/", 1_000, priority=3))
        assert [item.url for item in snapshot] == ["b.pk/", "a.pk/"]
        assert [item.url for item in car.queued_items()] == ["c.pk/", "a.pk/"]


# -- insertion order against the re-sorting reference ---------------------

_URLS = [f"site{u}.pk/" for u in range(4)]
_BUNDLES = BundleTransport()
#: Frames of (url, version).  Both versions of an even URL have the same
#: size, so a digest-less repeat must tell them apart by the frames'
#: version field.
_FRAMES = {
    (u, v): _BUNDLES.chunk(bytes(PAYLOAD_SIZE * (1 + u + v * (u % 2))), u, v)
    for u in range(len(_URLS))
    for v in range(2)
}

_enqueue = st.tuples(
    st.just("enqueue"),
    st.integers(0, len(_URLS) - 1),  # URL
    st.integers(0, 1),  # version
    st.sampled_from([0.0, 1.0, REQUEST_PRIORITY]),
    st.booleans(),  # carries a content digest
)
# Enqueues dominate, and most clock steps are zero, so equal keys and
# repeats of a queued version are common.
_step = st.one_of(
    _enqueue,
    _enqueue,
    _enqueue,
    st.tuples(st.just("drain"), st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5])),
    st.tuples(st.just("emit"), st.integers(0, 5)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 2.0])),
)


def _item(u: int, v: int, priority: float, with_digest: bool) -> CarouselItem:
    frames = _FRAMES[(u, v)]
    return CarouselItem(
        _URLS[u],
        len(frames) * PAYLOAD_SIZE,
        priority=priority,
        frames=frames,
        digest=f"{u}|{v}" if with_digest else None,
    )


def _state(item: CarouselItem) -> tuple:
    return (
        item.url, item.priority, item.enqueued_at, item.size_bytes,
        item.sent_bytes, item.frames_sent, item.digest,
    )


class TestInsertionOrderMatchesResort:
    """The insertion-ordered queue against the re-sorting reference.

    Random runs of new URLs, repeats at a higher, equal or lower
    priority, new versions, equal keys at one clock reading, drains,
    frame emission and clock advances leave both carousels in the same
    state after every step.
    """

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_step, max_size=60))
    def test_same_state_after_every_step(self, steps):
        car = BroadcastCarousel(8_000)  # 1000 bytes/s
        ref = BroadcastCarouselRef(8_000)
        for step in steps:
            kind = step[0]
            if kind == "enqueue":
                car.enqueue(_item(*step[1:]))
                ref.enqueue(_item(*step[1:]))
            elif kind == "drain":
                assert car.drain(step[1]) == ref.drain(step[1])
            elif kind == "emit":
                assert list(car.emit_frames(step[1])) == list(ref.emit_frames(step[1]))
            else:
                car.advance_time(step[1])
                ref.advance_time(step[1])

            queued = car.queued_items()
            assert [_state(q) for q in queued] == [_state(q) for q in ref._queue]
            assert car.backlog_bytes() == ref.backlog_bytes()
            assert car.total_sent_bytes == ref.total_sent_bytes
            for url in _URLS:
                assert car.eta_seconds(url) == ref.eta_seconds(url)
            # The queue's own invariants: the backlog counter equals
            # the queue's unsent bytes, and a URL is queued at most once.
            assert car.backlog_bytes() == sum(q.remaining_bytes for q in queued)
            assert len({q.url for q in queued}) == len(queued) == car.queue_length()
