"""The streaming broadcast engine (`repro.core.stream`).

Covers the transmit half (:class:`WaveformSource` and its batch wrapper
:func:`frames_to_waveform`), the carousel adapter, the chunked
:class:`StreamSession` glue, and the progressive page assembler —
including the two paper behaviours the dataflow exists for: bounded
memory over long broadcasts and mid-carousel tune-in.
"""

import numpy as np
import pytest

from repro.client.streaming import StreamingPageAssembler, parse_received
from repro.core.pipeline import frames_to_waveform
from repro.core.stream import (
    CarouselFrameSource,
    StreamSession,
    WaveformSource,
)
from repro.modem.modem import Modem, ReceivedFrame
from repro.modem.streaming import StreamingReceiver
from repro.server.transmitters import BroadcastEncodeCache
from repro.transport.bundle import BundleTransport
from repro.transport.carousel import BroadcastCarousel, CarouselItem
from repro.transport.framing import PAYLOAD_SIZE, Frame, FrameHeader, FrameType


@pytest.fixture(scope="module")
def modem():
    return Modem("sonic-ofdm")


def _frames(n, page_id=1, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Frame(
            FrameHeader(FrameType.BUNDLE_BYTES, page_id=page_id, seq=i, total=n),
            rng.integers(0, 256, PAYLOAD_SIZE, dtype=np.uint8).tobytes(),
        )
        for i in range(n)
    ]


class TestFramesToWaveform:
    def test_no_trailing_guard(self, modem):
        """The broadcast ends on the last payload symbol, not silence."""
        frames = _frames(16)
        wave = frames_to_waveform(frames, modem, frames_per_burst=16)
        assert wave.size == modem.burst_samples(16)
        # The last guard_samples are modulated signal, not a silence block.
        assert np.any(wave[-modem.profile.guard_samples :] != 0.0)

    def test_length_matches_broadcast_samples(self, modem):
        for n in (1, 15, 16, 17, 24, 33):
            wave = frames_to_waveform(_frames(n), modem, frames_per_burst=16)
            assert wave.size == modem.broadcast_samples(n, 16), n

    def test_equals_manual_burst_concatenation(self, modem):
        frames = _frames(24)
        wave = frames_to_waveform(frames, modem, frames_per_burst=16)
        first = modem.transmit_burst([f.to_bytes() for f in frames[:16]])
        second = modem.transmit_burst([f.to_bytes() for f in frames[16:]])
        guard = np.zeros(modem.profile.guard_samples)
        assert np.array_equal(wave, np.concatenate([first, guard, second]))

    def test_decodes_end_to_end(self, modem):
        frames = _frames(24)
        wave = frames_to_waveform(frames, modem, frames_per_burst=16)
        rx = modem.receive(wave, frames_per_burst=16)
        assert [f.payload for f in rx] == [f.to_bytes() for f in frames]


class TestBroadcastSamples:
    def test_zero_and_negative(self, modem):
        assert modem.broadcast_samples(0) == 0
        assert modem.broadcast_samples(-3) == 0

    def test_burst_arithmetic(self, modem):
        g = modem.profile.guard_samples
        assert modem.broadcast_samples(16, 16) == modem.burst_samples(16)
        assert (
            modem.broadcast_samples(32, 16)
            == 2 * modem.burst_samples(16) + g
        )
        assert (
            modem.broadcast_samples(20, 16)
            == modem.burst_samples(16) + g + modem.burst_samples(4)
        )


class TestWaveformSource:
    def test_fixed_chunks_then_short_tail(self, modem):
        frames = _frames(4)
        supply = iter([[f.to_bytes() for f in frames]])
        src = WaveformSource(lambda: next(supply, None), modem, chunk_samples=4800)
        chunks = list(src)
        assert all(c.size == 4800 for c in chunks[:-1])
        assert 0 < chunks[-1].size <= 4800
        total = sum(c.size for c in chunks)
        assert total == modem.broadcast_samples(4, 4)

    def test_bounded_buffer(self, modem):
        """The fifo never holds much more than one burst."""
        bursts = [[f.to_bytes() for f in _frames(16, seed=s)] for s in range(4)]
        supply = iter(bursts)
        src = WaveformSource(lambda: next(supply, None), modem, chunk_samples=4800)
        limit = modem.burst_samples(16) + modem.profile.guard_samples + 4800
        for _ in src:
            assert src.buffered_samples <= limit

    def test_receiver_buffer_does_not_grow_with_the_broadcast(self, modem):
        """Chunked decode holds about one burst, however long the capture."""
        peaks = []
        for n_bursts in (2, 4):
            supply = iter(
                [[f.to_bytes() for f in _frames(16, seed=s)] for s in range(n_bursts)]
            )
            wave = WaveformSource(
                lambda: next(supply, None), modem, chunk_samples=4800
            ).read_all()
            rx = StreamingReceiver(modem, frames_per_burst=16)
            n_ok = sum(
                f.ok
                for i in range(0, wave.size, 4800)
                for f in rx.push(wave[i : i + 4800])
            )
            n_ok += sum(f.ok for f in rx.finish())
            assert n_ok == 16 * n_bursts
            peaks.append(rx.max_buffer_samples)
        assert peaks[0] == peaks[1] < 2 * modem.burst_samples(16)

    def test_burst_cache_dedupes_repeat_bursts(self, modem):
        payloads = [f.to_bytes() for f in _frames(16)]
        cache = BroadcastEncodeCache(capacity=8)
        supply = iter([payloads, payloads, payloads])
        src = WaveformSource(
            lambda: next(supply, None), modem, cache=cache
        )
        src.read_all()
        assert cache.stats.burst_misses == 1
        assert cache.stats.burst_hits == 2
        # A hit hands back the one cached array, frozen against writes.
        wave = cache.burst(payloads, modem)
        assert cache.burst(payloads, modem) is wave
        assert not wave.flags.writeable
        assert cache.stats.burst_hits == 4
        # Another modem profile never shares samples: a second miss.
        other = cache.burst(payloads, Modem("audible-7k"))
        assert cache.stats.burst_misses == 2
        assert other.size != wave.size or not np.array_equal(other, wave)

    def test_idle_fill_pads_with_silence(self, modem):
        """An idle supply yields silence; the stream never ends."""
        sent = {"n": 0}

        def supply():
            if sent["n"] == 0:
                sent["n"] += 1
                return [f.to_bytes() for f in _frames(2)]
            return None

        src = WaveformSource(supply, modem, chunk_samples=4800, idle_fill=True)
        burst_len = modem.burst_samples(2)
        n_chunks = burst_len // 4800 + 10
        chunks = [src.read() for _ in range(n_chunks)]
        assert all(c.size == 4800 for c in chunks)
        assert np.all(chunks[-1] == 0.0)  # idling

    def test_rejects_bad_chunk_size(self, modem):
        with pytest.raises(ValueError):
            WaveformSource(lambda: None, modem, chunk_samples=0)


class TestCarouselFrameSource:
    def test_lazy_materialisation(self):
        """Only the head page is ever materialised."""
        carousel = BroadcastCarousel(20_000)
        made = []

        def make_frames(item):
            made.append(item.url)
            return _frames(4, page_id=int(item.url[-1]))

        for i in range(3):
            carousel.enqueue(
                CarouselItem(f"page/{i}", 400, priority=1.0 / (i + 1))
            )
        source = CarouselFrameSource(carousel, 4, make_frames=make_frames)
        assert source() is not None  # first burst: only page 0 touched
        assert made == ["page/0"]
        while source() is not None:
            pass
        assert made == ["page/0", "page/1", "page/2"]
        assert source.pages_materialised == 3

    def test_requires_materialiser_for_frameless_items(self):
        carousel = BroadcastCarousel(20_000)
        carousel.enqueue(CarouselItem("page/x", 400))
        with pytest.raises(ValueError):
            CarouselFrameSource(carousel, 4)()


class TestStreamSession:
    def _bundle_frames(self, page_id, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, 700, dtype=np.uint8).tobytes()
        return data, BundleTransport().chunk(data, page_id=page_id, version=0)

    def test_end_to_end_carousel_to_assembler(self, modem):
        carousel = BroadcastCarousel(20_000)
        originals = {}
        for i in range(3):
            data, frames = self._bundle_frames(i, seed=i)
            originals[i] = data
            carousel.enqueue(
                CarouselItem(
                    f"page/{i}",
                    len(data),
                    priority=1.0 / (i + 1),
                    frames=frames,
                )
            )
        source = WaveformSource(
            CarouselFrameSource(carousel, 8), modem, chunk_samples=4800
        )
        assembler = StreamingPageAssembler()
        session = StreamSession(
            source,
            StreamingReceiver(modem, frames_per_burst=8),
            carousel=carousel,
            on_frames=lambda frames, now: assembler.push(frames, now),
        )
        stats = session.run()
        assert stats.frames_ok == stats.frames_decoded > 0
        assert assembler.pages_completed == 3
        # The audio clock drove the carousel clock.
        assert carousel._now == pytest.approx(stats.audio_seconds)
        # Synthetic payloads are raw bytes, not PageBundle serialisations:
        # full reassembly is counted, parsing is not attempted.
        assert assembler.pages_raw == 3
        assert assembler.frames_lost == 0

    def test_mid_carousel_tune_in(self, modem):
        """A late receiver misses columns, then fills them on the next
        identical rebroadcast cycle."""
        data, frames = self._bundle_frames(5, seed=42)
        payloads = [f.to_bytes() for f in frames]
        # Three frames per burst: a late tune-in misses whole bursts (a
        # burst's preamble gone means its frames are gone) but can sync
        # onto every later burst of the same page.
        fpb = 3

        def one_cycle():
            supply = iter(
                [payloads[i : i + fpb] for i in range(0, len(payloads), fpb)]
            )
            return WaveformSource(
                lambda: next(supply, None), modem, chunk_samples=4800
            ).read_all()

        cycle = one_cycle()
        rx = StreamingReceiver(modem, frames_per_burst=fpb)
        assembler = StreamingPageAssembler()
        # Tune in after 60% of the first cycle.
        late = cycle[int(cycle.size * 0.6) :]
        for i in range(0, late.size, 4800):
            assembler.push(rx.push(late[i : i + 4800]))
        assert assembler.pages_completed == 0
        # Second, identical cycle (guard first, as on air).  Partially
        # received versions persist as gap state until the rebroadcast
        # fills them in.
        second = np.concatenate([np.zeros(modem.profile.guard_samples), cycle])
        half = second.size // 2
        head = second[:half]
        for i in range(0, head.size, 4800):
            assembler.push(rx.push(head[i : i + 4800]))
        assert assembler.pages_completed == 0
        assert assembler.partial_pages >= 1  # gaps from the missed columns
        rest = second[half:]
        for i in range(0, rest.size, 4800):
            assembler.push(rx.push(rest[i : i + 4800]))
        assembler.push(rx.finish())
        assert assembler.pages_completed == 1

    def test_clock_follows_emitted_audio_through_buffering_channel(self, modem):
        """The FM stream holds samples back in its filter blocks; the
        session clock still reads the carousel's, chunk for chunk."""
        from repro.radio.channels import FmRadioLink

        carousel = BroadcastCarousel(20_000)
        data, frames = self._bundle_frames(0, seed=3)
        carousel.enqueue(CarouselItem("page/0", len(data), frames=frames))
        source = WaveformSource(
            CarouselFrameSource(carousel, 8), modem, chunk_samples=4800
        )
        session = StreamSession(
            source,
            StreamingReceiver(modem, frames_per_burst=8),
            channel=FmRadioLink(seed=2).stream(-70.0, peak_estimate=0.5),
            carousel=carousel,
        )
        while session.step():
            assert carousel._now == pytest.approx(session.now)
            assert session.stats.audio_seconds < session.now  # held back

    def test_session_duration_limit(self, modem):
        src = WaveformSource(
            lambda: [f.to_bytes() for f in _frames(2)],
            modem,
            chunk_samples=4800,
            idle_fill=True,
        )
        session = StreamSession(src, StreamingReceiver(modem, frames_per_burst=2))
        stats = session.run(duration_s=2.0)
        assert stats.audio_seconds == pytest.approx(2.0, abs=0.1)


class TestStreamingPageAssembler:
    @staticmethod
    def _received(frames):
        return [ReceivedFrame(f.to_bytes(), 0, 0.0, 1.0) for f in frames]

    def test_conflicting_total_counts_as_lost(self):
        """Seq 0 of total 3, then seq 1 claiming total 2: the second
        frame is lost, and seq 0 still completes with the rest."""
        frames = BundleTransport().chunk(bytes(2 * PAYLOAD_SIZE + 1), page_id=9)
        assert len(frames) == 3
        liar = Frame(
            FrameHeader(FrameType.BUNDLE_BYTES, 9, seq=1, total=2, n_pixels=PAYLOAD_SIZE),
            frames[1].payload,
        )
        assembler = StreamingPageAssembler()
        assembler.push(self._received([frames[0], liar]))
        assert assembler.frames_lost == 1
        assert assembler.progress(9) == pytest.approx(1 / 3)
        assembler.push(self._received(frames[1:]))
        assert assembler.pages_raw == 1  # complete; raw bytes, not a bundle
        assert assembler.partial_pages == 0

    def test_undecodable_bundle_counts_as_raw(self, mixed_bundle_frames):
        """Frames of two bundles under one version complete a blob whose
        image does not decode: it counts in ``pages_raw``, not raised."""
        assembler = StreamingPageAssembler()
        assert assembler.push(self._received(mixed_bundle_frames)) == []
        assert assembler.pages_raw == 1
        assert assembler.pages == [] and assembler.partial_pages == 0

    def test_push_records_pages_and_add_does_not(self, page_image):
        from repro.transport.bundle import PageBundle
        from repro.web.clickmap import ClickMap

        bundle = PageBundle("a.pk/", page_image, ClickMap())
        frames = BundleTransport().chunk(bundle.to_bytes(), page_id=2)
        pushed = StreamingPageAssembler()
        done = pushed.push(self._received(frames), now=5.0)
        assert [p.bundle for p in pushed.pages] == done
        assert pushed.pages[0].completed_at == 5.0
        added = StreamingPageAssembler()
        assert [b.url for b in added.add(list(frames))] == ["a.pk/"]
        assert added.pages == [] and added.pages_completed == 0

    def test_parse_received_marks_lost_and_garbage_frames(self):
        frame = _frames(1)[0]
        received = [
            ReceivedFrame(frame.to_bytes(), 0, 0.0, 1.0),
            ReceivedFrame(None, 0, 0.0, 1.0),
            ReceivedFrame(b"\xff" * len(frame.to_bytes()), 0, 0.0, 1.0),
        ]
        assert parse_received(received) == [frame, None, None]


class TestSonicSystemStream:
    def test_open_stream_delivers_to_clients(self):
        from repro.core.config import SystemConfig
        from repro.core.system import SonicSystem

        system = SonicSystem(SystemConfig(n_sites=2))
        session = system.open_stream(chunk_samples=9600)
        stats = session.run(max_chunks=300)
        assert stats.frames_decoded > 0
        assert stats.frames_ok == stats.frames_decoded

    def test_open_stream_keeps_no_sent_burst(self):
        """The audio-true stream holds O(chunk + burst), not O(broadcast).

        Over a dozen bursts, the station's encode cache gets no burst
        entry, and what :meth:`Modem.transmit_burst` allocated and is
        still alive after the run is at most one burst: the source's
        partly read head, plus its array header.
        """
        import inspect
        import tracemalloc

        from repro.core.config import SystemConfig
        from repro.core.system import SonicSystem

        lines, first = inspect.getsourcelines(Modem.transmit_burst)
        where = inspect.getsourcefile(Modem.transmit_burst)
        span = range(first, first + len(lines))

        system = SonicSystem(SystemConfig(n_sites=2))
        tx = system.registry.get("lahore-93.7")
        session = system.open_stream(chunk_samples=9600)
        tracemalloc.start(1)
        try:
            session.run(max_chunks=150)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            trace.size
            for trace in snapshot.traces
            if any(f.filename == where and f.lineno in span for f in trace.traceback)
        )
        one_burst = Modem().burst_samples(16) * 8
        assert session.source.bursts_encoded >= 10
        assert not any(key[0] == "burst" for key in tx.cache._entries)
        assert tx.cache.stats.burst_misses == 0
        assert 0 < held <= one_burst + 1024, (held, one_burst)
