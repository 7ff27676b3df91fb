"""Pull-based chunked broadcast dataflow: carousel -> audio -> frames.

The paper's SONIC station transmits *continuously*: a carousel drains at
the channel rate for days while phones tune in and out mid-stream.  This
module is the transmit half (and the glue) of that dataflow:

* :class:`WaveformSource` — pulls frame bursts from a supply on demand
  and emits fixed-size audio chunks, so a 48-hour broadcast never exists
  as one array.
* :class:`CarouselFrameSource` — adapts a
  :class:`~repro.transport.carousel.BroadcastCarousel` into that burst
  supply, materialising frame payloads lazily (head item only) so a deep
  backlog costs O(page), not O(backlog).
* :class:`StreamSession` — steps source -> channel -> receiver one chunk
  at a time with live counters; both ``repro stream`` and the audio-true
  system path drive this.

:func:`repro.core.pipeline.frames_to_waveform` is the whole-broadcast
wrapper over :class:`WaveformSource`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.modem.modem import Modem, ReceivedFrame
    from repro.modem.streaming import StreamingReceiver
    from repro.transport.carousel import BroadcastCarousel, CarouselItem
    from repro.transport.framing import Frame

__all__ = [
    "WaveformSource",
    "CarouselFrameSource",
    "StreamStats",
    "StreamSession",
]

#: 100 ms of audio at the modem rate — the default streaming granularity.
DEFAULT_CHUNK_SAMPLES = 4800


class WaveformSource:
    """Fixed-size audio chunks pulled on demand from a burst supply.

    ``next_burst()`` returns the next burst of frame payload bytes, or
    ``None`` when the supply has nothing to send.  With ``idle_fill``
    the source then emits silence (a live station carrying an idle
    carousel); without it, ``None`` ends the stream (a finite frame
    list).  Bursts are separated by one ``guard_samples`` silence block
    — *between* bursts only, never after the last one, so the emitted
    sample count matches :meth:`Modem.broadcast_samples` exactly.
    """

    def __init__(
        self,
        next_burst: Callable[[], "list[bytes] | None"],
        modem: "Modem",
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        idle_fill: bool = False,
    ) -> None:
        if chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        self._next_burst = next_burst
        self._modem = modem
        self.chunk_samples = chunk_samples
        self.idle_fill = idle_fill
        self._fifo: deque[np.ndarray] = deque()
        self._fifo_samples = 0
        self._needs_guard = False  # a burst was just emitted, no idle since
        self._exhausted = False
        self.bursts_encoded = 0
        self.frames_encoded = 0
        self.samples_emitted = 0

    def _refill(self) -> bool:
        """Pull one burst into the fifo; False when nothing was added."""
        if self._exhausted:
            return False
        payloads = self._next_burst()
        if not payloads:
            if not self.idle_fill:
                self._exhausted = True
            return False
        if self._needs_guard:
            guard = np.zeros(self._modem.profile.guard_samples)
            self._fifo.append(guard)
            self._fifo_samples += guard.size
        wave = self._modem.transmit_burst(payloads)
        self._fifo.append(wave)
        self._fifo_samples += wave.size
        self._needs_guard = True
        self.bursts_encoded += 1
        self.frames_encoded += len(payloads)
        return True

    def read(self) -> np.ndarray:
        """Next audio chunk: ``chunk_samples`` long while the stream
        lasts, shorter at the end, empty once exhausted."""
        while self._fifo_samples < self.chunk_samples:
            if not self._refill():
                break
        if self._fifo_samples == 0 and self._exhausted:
            return np.zeros(0)
        if self._fifo_samples < self.chunk_samples and not self._exhausted:
            # Idle carousel: pad this chunk with silence.  Silence is a
            # guard in itself, so the next burst needs no explicit one.
            pad = self.chunk_samples - self._fifo_samples
            self._fifo.append(np.zeros(pad))
            self._fifo_samples += pad
            self._needs_guard = False
        out: list[np.ndarray] = []
        need = self.chunk_samples
        while need > 0 and self._fifo:
            head = self._fifo[0]
            if head.size <= need:
                out.append(head)
                need -= head.size
                self._fifo.popleft()
            else:
                out.append(head[:need])
                self._fifo[0] = head[need:]
                need = 0
        self._fifo_samples -= sum(seg.size for seg in out)
        chunk = out[0] if len(out) == 1 else np.concatenate(out)
        self.samples_emitted += chunk.size
        return chunk

    def __iter__(self) -> Iterator[np.ndarray]:
        while True:
            chunk = self.read()
            if chunk.size == 0:
                return
            yield chunk

    def read_all(self) -> np.ndarray:
        """Drain the whole (finite) supply into one array — batch use."""
        chunks = list(self)
        return np.concatenate(chunks) if chunks else np.zeros(0)

    @property
    def buffered_samples(self) -> int:
        return self._fifo_samples


class CarouselFrameSource:
    """Burst supply over a :class:`BroadcastCarousel`.

    Frame payloads are produced via :meth:`BroadcastCarousel.emit_frames`
    so byte/backlog accounting stays consistent with the drained queue.
    Items queued with ``frames=None`` are materialised lazily through
    ``make_frames`` when they reach the head — a 200-page backlog only
    ever holds one page's frames in memory.
    """

    def __init__(
        self,
        carousel: "BroadcastCarousel",
        frames_per_burst: int = 16,
        make_frames: "Callable[[CarouselItem], list[Frame]] | None" = None,
    ) -> None:
        if frames_per_burst < 1:
            raise ValueError("frames_per_burst must be >= 1")
        self.carousel = carousel
        self.frames_per_burst = frames_per_burst
        self.make_frames = make_frames
        self.pages_materialised = 0

    def __call__(self) -> "list[bytes] | None":
        payloads: list[bytes] = []
        while len(payloads) < self.frames_per_burst:
            item = self.carousel.head()
            if item is None:
                break
            if item.frames is None:
                if self.make_frames is None:
                    raise ValueError(
                        f"item {item.url} has no frames and no make_frames "
                        "materialiser was provided"
                    )
                frames = self.make_frames(item)
                if not frames:
                    raise ValueError(f"item {item.url} materialised no frames")
                item.frames = frames
                self.pages_materialised += 1
            for _, frame in self.carousel.emit_frames(1):
                payloads.append(frame.to_bytes())
        return payloads or None


@dataclass
class StreamStats:
    """Live counters of one :class:`StreamSession`."""

    chunks: int = 0
    samples: int = 0  # samples delivered to the receiver during step()
    frames_decoded: int = 0
    frames_ok: int = 0
    elapsed_s: float = 0.0  # wall clock spent in step()
    max_rx_buffer_samples: int = 0
    sample_rate: float = 48_000.0

    @property
    def audio_seconds(self) -> float:
        return self.samples / self.sample_rate

    @property
    def chunks_per_s(self) -> float:
        return self.chunks / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def realtime_factor(self) -> float:
        return self.audio_seconds / self.elapsed_s if self.elapsed_s > 0 else 0.0


class StreamSession:
    """Run source -> channel -> receiver one chunk at a time.

    The audio stream *is* the clock: each emitted chunk advances
    simulated time by ``chunk / sample_rate`` seconds.  ``on_advance(now)``
    fires before each chunk is pulled (schedule enqueues there);
    ``on_frames(frames, now)`` delivers every decoded frame batch (wire a
    client or assembler there).  Peak memory is O(chunk + burst): no hop
    ever holds the whole broadcast.
    """

    def __init__(
        self,
        source: WaveformSource,
        receiver: "StreamingReceiver",
        channel=None,
        carousel: "BroadcastCarousel | None" = None,
        on_frames: "Callable[[list[ReceivedFrame], float], None] | None" = None,
        on_advance: "Callable[[float], None] | None" = None,
    ) -> None:
        self.source = source
        self.receiver = receiver
        self.channel = channel
        self.carousel = carousel
        self.on_frames = on_frames
        self.on_advance = on_advance
        sample_rate = source._modem.profile.ofdm.sample_rate
        self.stats = StreamStats(sample_rate=sample_rate)
        self._finished = False

    @property
    def now(self) -> float:
        """Simulated seconds of audio emitted so far.

        This is the carousel's clock.  ``stats.samples`` can trail it by
        whatever a buffering channel holds back, so a frame stamped with
        it carries that buffering as extra latency.
        """
        return self.source.samples_emitted / self.stats.sample_rate

    def step(self) -> bool:
        """Process one chunk; False once the source is exhausted."""
        if self._finished:
            return False
        t0 = time.perf_counter()
        if self.on_advance is not None:
            self.on_advance(self.now)
        chunk = self.source.read()
        if chunk.size == 0:
            return False
        chunk_s = chunk.size / self.stats.sample_rate
        if self.carousel is not None:
            self.carousel.advance_time(chunk_s)
        if self.channel is not None:
            chunk = self.channel.process(chunk)
        frames = self.receiver.push(chunk)
        self.stats.chunks += 1
        self._account(chunk.size, frames, time.perf_counter() - t0)
        if frames and self.on_frames is not None:
            self.on_frames(frames, self.now)
        return True

    def finish(self) -> "list[ReceivedFrame]":
        """Flush the channel tail and the receiver; returns final frames."""
        if self._finished:
            return []
        self._finished = True
        t0 = time.perf_counter()
        frames: "list[ReceivedFrame]" = []
        if self.channel is not None:
            tail = self.channel.finish()
            if tail.size:
                frames += self.receiver.push(tail)
        frames += self.receiver.finish()
        self._account(0, frames, time.perf_counter() - t0)
        if frames and self.on_frames is not None:
            self.on_frames(frames, self.now)
        return frames

    def run(
        self,
        duration_s: float | None = None,
        max_chunks: int | None = None,
        progress: "Callable[[StreamSession], None] | None" = None,
        progress_every: int = 50,
    ) -> StreamStats:
        """Step until the source ends, ``duration_s`` of audio has been
        emitted, or ``max_chunks`` chunks have been processed."""
        while True:
            if duration_s is not None and self.now >= duration_s:
                break
            if max_chunks is not None and self.stats.chunks >= max_chunks:
                break
            if not self.step():
                break
            if progress is not None and self.stats.chunks % progress_every == 0:
                progress(self)
        self.finish()
        if progress is not None:
            progress(self)
        return self.stats

    def _account(self, n_samples: int, frames, dt: float) -> None:
        self.stats.samples += n_samples
        self.stats.frames_decoded += len(frames)
        self.stats.frames_ok += sum(1 for f in frames if f.ok)
        self.stats.elapsed_s += dt
        self.stats.max_rx_buffer_samples = max(
            self.stats.max_rx_buffer_samples, self.receiver.buffered_samples
        )
