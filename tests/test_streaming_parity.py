"""Streaming decode must equal ``Modem.receive`` for ANY chunking.

The chunked receiver's whole contract is that chunk boundaries are
invisible: feeding a capture one sample at a time, in random slices, or
as one array yields bit-for-bit the frames, payloads, ``start_index``,
SNR and sync scores of the batch path.  This module sweeps randomized
chunk sizes (the PR's acceptance asks for >= 20) over captures whose
preambles deliberately straddle boundaries.
"""

import numpy as np
import pytest

from repro.modem import AudioQrModem, FskModem, GmskModem
from repro.modem.modem import Modem, ReceivedFrame
from repro.modem.streaming import StreamingReceiver


def _stream_decode(wave, modem, chunk_sizes, frames_per_burst=None):
    """Decode ``wave`` pushing chunks of the given sizes (cycled)."""
    rx = StreamingReceiver(modem, frames_per_burst=frames_per_burst)
    out: list[ReceivedFrame] = []
    i = 0
    k = 0
    while i < wave.size:
        step = int(chunk_sizes[k % len(chunk_sizes)])
        k += 1
        out += rx.push(wave[i : i + step])
        i += step
    out += rx.finish()
    return out


def _assert_same(streamed, batch):
    assert len(streamed) == len(batch)
    for s, b in zip(streamed, batch):
        assert s.payload == b.payload
        assert s.start_index == b.start_index
        assert s.snr_db == b.snr_db  # bit-equal, not approx
        assert s.sync_score == b.sync_score


@pytest.fixture(scope="module")
def capture():
    """Two bursts (16 + 8 frames) plus surrounding silence."""
    modem = Modem("sonic-ofdm")
    rng = np.random.default_rng(99)
    payloads = [
        rng.integers(0, 256, modem.frame_payload_size, dtype=np.uint8).tobytes()
        for _ in range(24)
    ]
    first = modem.transmit_burst(payloads[:16])
    second = modem.transmit_burst(payloads[16:])
    guard = np.zeros(modem.profile.guard_samples)
    wave = np.concatenate([np.zeros(3000), first, guard, second, np.zeros(2000)])
    return modem, wave, payloads


class TestRandomChunkSizes:
    def test_twenty_random_chunkings(self, capture):
        """>= 20 randomized chunk sizes, 1 sample .. whole capture."""
        modem, wave, payloads = capture
        batch = modem.receive(wave, frames_per_burst=16)
        assert [f.payload for f in batch] == payloads
        rng = np.random.default_rng(7)
        sizes = np.unique(
            np.concatenate([
                [1, 17, wave.size],  # extremes always included
                rng.integers(2, wave.size, 18),
            ])
        )
        assert sizes.size >= 20
        for size in sizes:
            streamed = _stream_decode(wave, modem, [size], frames_per_burst=16)
            _assert_same(streamed, batch)

    def test_mixed_chunk_sizes_within_one_run(self, capture):
        """Chunk size varying mid-stream is just as invisible."""
        modem, wave, _ = capture
        batch = modem.receive(wave, frames_per_burst=16)
        rng = np.random.default_rng(21)
        for _ in range(5):
            sizes = rng.integers(1, 20_000, 64)
            _assert_same(_stream_decode(wave, modem, sizes, 16), batch)

    def test_boundary_straddles_preamble(self, capture):
        """Chunk edges placed inside each preamble's 1920 samples."""
        modem, wave, _ = capture
        batch = modem.receive(wave, frames_per_burst=16)
        preamble = modem._preamble.size
        # First preamble starts at 3000; split mid-chirp, then tiny chunks.
        for split in (3000 + 7, 3000 + preamble // 2, 3000 + preamble - 1):
            rx = StreamingReceiver(modem, frames_per_burst=16)
            out = rx.push(wave[:split])
            for i in range(split, wave.size, 4096):
                out += rx.push(wave[i : i + 4096])
            out += rx.finish()
            _assert_same(out, batch)

    def test_auto_burst_sizing_mode(self, capture):
        """Without frames_per_burst the receiver sizes bursts from the
        signal itself — still chunk-invariant."""
        modem, wave, _ = capture
        batch = modem.receive(wave)
        assert sum(1 for f in batch if f.ok) == 24
        for size in (997, 4800, 50_411):
            _assert_same(_stream_decode(wave, modem, [size]), batch)

    def test_empty_and_zero_size_pushes(self, capture):
        """Zero-length chunks interleaved anywhere are no-ops."""
        modem, wave, _ = capture
        batch = modem.receive(wave, frames_per_burst=16)
        rx = StreamingReceiver(modem, frames_per_burst=16)
        out = rx.push(np.zeros(0))
        for i in range(0, wave.size, 9999):
            out += rx.push(wave[i : i + 9999])
            out += rx.push(np.zeros(0))
        out += rx.finish()
        _assert_same(out, batch)

    def test_finish_is_idempotent_and_push_after_raises(self, capture):
        modem, wave, _ = capture
        rx = StreamingReceiver(modem, frames_per_burst=16)
        rx.push(wave)
        rx.finish()
        assert rx.finish() == []
        with pytest.raises(RuntimeError):
            rx.push(wave[:100])


class TestShortFinalBurst:
    """A broadcast's last burst may hold fewer than ``frames_per_burst``
    frames; the silence after it is not a frame."""

    @pytest.fixture(scope="class")
    def broadcast(self):
        """18 clean frames as bursts of 16 + 2, then a full burst's
        length of silence, so every slot of a 16-frame burst is there."""
        modem = Modem("sonic-ofdm")
        rng = np.random.default_rng(18)
        payloads = [rng.bytes(modem.frame_payload_size) for _ in range(18)]
        guard = np.zeros(modem.profile.guard_samples)
        wave = np.concatenate([
            modem.transmit_burst(payloads[:16]),
            guard,
            modem.transmit_burst(payloads[16:]),
            np.zeros(modem.burst_samples(16)),
        ])
        return modem, wave, payloads

    def test_streaming_receiver(self, broadcast):
        modem, wave, payloads = broadcast
        rx = StreamingReceiver(modem, frames_per_burst=16)
        frames = [f for chunk in np.array_split(wave, 9) for f in rx.push(chunk)]
        frames += rx.finish()
        assert (rx.frames_decoded, rx.frames_ok) == (18, 18)
        assert [f.payload for f in frames] == payloads

    def test_modem_receive(self, broadcast):
        modem, wave, payloads = broadcast
        frames = modem.receive(wave, frames_per_burst=16)
        assert [f.payload for f in frames] == payloads


# -- message-framed modem family (FSK / GMSK / AudioQR) ---------------------

FAMILY = {
    "fsk": (FskModem, [40, 18, 3]),
    "gmsk": (GmskModem, [80, 24, 200]),
    "audioqr": (AudioQrModem, [12, 30]),
}


def _family_capture(name):
    modem_cls, sizes = FAMILY[name]
    modem = modem_cls()
    rng = np.random.default_rng(hash(name) % 2**32)
    payloads = [bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in sizes]
    parts = [np.zeros(1700)]
    for p in payloads:
        parts.append(modem.transmit(p))
        parts.append(np.zeros(1300))
    wave = np.concatenate(parts)
    wave = wave + 0.01 * rng.standard_normal(wave.size)
    return modem, wave, payloads


def _family_stream(modem, wave, chunk_sizes):
    rx = modem.stream()
    out = []
    i = 0
    k = 0
    while i < wave.size:
        step = int(chunk_sizes[k % len(chunk_sizes)])
        k += 1
        out += rx.push(wave[i : i + step])
        i += step
    return out + rx.finish()


@pytest.mark.parametrize("name", list(FAMILY))
class TestFamilyChunkInvariance:
    def test_twenty_random_chunkings(self, name):
        """>= 20 randomized chunk sizes, 1 sample .. whole capture."""
        modem, wave, payloads = _family_capture(name)
        batch = modem.receive(wave)
        assert batch == payloads
        rng = np.random.default_rng(77)
        sizes = np.unique(
            np.concatenate([
                [1, 251, wave.size],  # extremes always included
                rng.integers(2, wave.size, 18),
            ])
        )
        assert sizes.size >= 20
        for size in sizes:
            assert _family_stream(modem, wave, [size]) == batch, (name, size)

    def test_mixed_chunk_sizes_within_one_run(self, name):
        modem, wave, _ = _family_capture(name)
        batch = modem.receive(wave)
        rng = np.random.default_rng(78)
        for _ in range(3):
            sizes = rng.integers(1, 30_000, 64)
            assert _family_stream(modem, wave, sizes) == batch

    def test_boundary_straddles_marker(self, name):
        """Chunk edges placed inside the sync marker itself."""
        modem, wave, _ = _family_capture(name)
        batch = modem.receive(wave)
        marker = modem.sync.template.size
        for split in (1700 + 3, 1700 + marker // 2, 1700 + marker - 1):
            rx = modem.stream()
            out = rx.push(wave[:split])
            for i in range(split, wave.size, 4096):
                out += rx.push(wave[i : i + 4096])
            out += rx.finish()
            assert out == batch

    def test_zero_size_pushes_and_finish_semantics(self, name):
        modem, wave, _ = _family_capture(name)
        batch = modem.receive(wave)
        rx = modem.stream()
        out = rx.push(np.zeros(0))
        for i in range(0, wave.size, 7777):
            out += rx.push(wave[i : i + 7777])
            out += rx.push(np.zeros(0))
        out += rx.finish()
        assert out == batch
        assert rx.finish() == []
        with pytest.raises(RuntimeError):
            rx.push(wave[:10])

    def test_buffer_is_trimmed(self, name):
        """The streaming buffer must not grow with the whole capture."""
        modem, wave, _ = _family_capture(name)
        rx = modem.stream()
        for i in range(0, wave.size, 4000):
            rx.push(wave[i : i + 4000])
        rx.finish()
        assert rx.messages_decoded == len(FAMILY[name][1])
        assert rx.max_buffer_samples < wave.size
