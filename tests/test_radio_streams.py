"""Chunk-capable channel streams (`repro.radio.streams`).

Two distinct guarantees, per stream:

* ``AcousticStream`` is the whole acoustic hop: :meth:`AcousticChannel.transmit`
  is one chunk of it, and both equal the frozen whole-array channel in
  ``tests/reference/acoustic.py`` bit for bit, for any chunking and
  call slot for call slot.
* ``FmLinkStream`` is chunk-*invariant* (any chunking of the input gives
  bit-identical output) and length-preserving, with the same threshold
  behaviour as the batch link; it is a streaming FM chain in its own
  right, not pinned to ``FmRadioLink.transmit``'s whole-array numerics.

``StreamingFir`` and ``FmLinkStream`` also equal the per-block
``fftconvolve`` references in ``tests/reference`` bit for bit, and so
does the length of every ``process()``/``flush()``/``finish()`` return.
"""

import numpy as np
import pytest

from repro.modem.modem import Modem
from repro.modem.streaming import StreamingReceiver
from repro.radio.channels import AcousticChannel, FmRadioLink
from repro.radio.streams import NOISE_BLOCK, AwgnStream, StreamingFir
from tests.reference.acoustic import acoustic_transmit_ref
from tests.reference.streaming_dsp import (
    StreamingFirRef,
    fm_link_stream_ref,
    fm_noise_ref,
)


def _returns(stream, wave, sizes):
    """Every ``process()`` return, then the flushed tail."""
    out = []
    i = 0
    k = 0
    while i < wave.size:
        step = int(sizes[k % len(sizes)])
        k += 1
        out.append(stream.process(wave[i : i + step]))
        i += step
    # Channel streams end with finish(); bare filters with flush().
    out.append(stream.finish() if hasattr(stream, "finish") else stream.flush())
    return out


def _run_chunked(stream, wave, sizes):
    return np.concatenate(_returns(stream, wave, sizes))


def _assert_same_returns(got, want):
    assert [r.size for r in got] == [r.size for r in want]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def burst():
    modem = Modem("sonic-ofdm")
    rng = np.random.default_rng(11)
    payloads = [
        rng.integers(0, 256, modem.frame_payload_size, dtype=np.uint8).tobytes()
        for _ in range(4)
    ]
    return modem, modem.transmit_burst(payloads), payloads


class TestAwgnStream:
    def test_chunked_equals_whole_draw(self):
        """Sequential normal draws equal one whole-array draw."""
        x = np.linspace(-1, 1, 10_000)
        whole = x + np.random.default_rng(5).normal(0.0, 0.1, x.size)
        stream = AwgnStream(np.random.default_rng(5), 0.1)
        assert np.array_equal(_run_chunked(stream, x, [997]), whole)

    def test_finish_is_empty(self):
        stream = AwgnStream(np.random.default_rng(0), 0.1)
        stream.process(np.zeros(10))
        assert stream.finish().size == 0


class TestAcousticStream:
    @pytest.mark.parametrize("distance_m", [0.0, 0.5, 1.3])
    def test_bit_identical_to_batch_channel(self, burst, distance_m):
        """``transmit`` and every chunking of the stream equal the frozen
        whole-array channel, at the cable, mid-room and past the cliff."""
        _, wave, _ = burst
        power = float(np.mean(wave**2))
        batch = acoustic_transmit_ref(AcousticChannel(seed=77), wave, distance_m)
        assert np.array_equal(AcousticChannel(seed=77).transmit(wave, distance_m), batch)
        for sizes in ([997], [4800], [wave.size], [1, 48_000]):
            stream = AcousticChannel(seed=77).stream(
                distance_m, wave.size, power
            )
            assert np.array_equal(_run_chunked(stream, wave, sizes), batch)

    def test_rng_call_slots_advance(self, burst):
        """Each ``transmit`` and each stream open take one channel call
        slot, as each call of the reference does."""
        _, wave, _ = burst
        power = float(np.mean(wave**2))
        ch_ref = AcousticChannel(seed=3)
        first_b = acoustic_transmit_ref(ch_ref, wave, 0.5)
        second_b = acoustic_transmit_ref(ch_ref, wave, 0.5)
        ch_tx = AcousticChannel(seed=3)
        assert np.array_equal(ch_tx.transmit(wave, 0.5), first_b)
        assert np.array_equal(ch_tx.transmit(wave, 0.5), second_b)
        ch_stream = AcousticChannel(seed=3)
        first_s = _run_chunked(ch_stream.stream(0.5, wave.size, power), wave, [4800])
        second_s = _run_chunked(ch_stream.stream(0.5, wave.size, power), wave, [4800])
        assert np.array_equal(first_s, first_b)
        assert np.array_equal(second_s, second_b)
        assert not np.array_equal(first_b, second_b)  # slots differ

    @pytest.mark.parametrize("distance_m", [0.0, 0.5, 1.3])
    def test_empty_input_takes_a_call_slot(self, burst, distance_m):
        _, wave, _ = burst
        ch, ch_ref = AcousticChannel(seed=9), AcousticChannel(seed=9)
        assert ch.transmit(np.zeros(0), distance_m).size == 0
        assert acoustic_transmit_ref(ch_ref, np.zeros(0), distance_m).size == 0
        assert np.array_equal(
            ch.transmit(wave, distance_m),
            acoustic_transmit_ref(ch_ref, wave, distance_m),
        )

    def test_overrun_raises(self, burst):
        _, wave, _ = burst
        stream = AcousticChannel(seed=1).stream(0.5, 1000, 1.0)
        stream.process(wave[:1000])
        with pytest.raises(ValueError):
            stream.process(wave[:1])


class TestStreamingFir:
    def test_chunk_invariant_and_matches_block_anchored_filter(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=50_000)
        chunkings = (
            [x.size],
            [997],
            [1, 17, 4800],
            [1],
            [20_000, 3],  # pushes spanning many 4096-sample blocks
            rng.integers(1, 12_000, size=16),
        )
        for num_taps in (127, 511):  # the FM chain's two filter lengths
            taps = rng.normal(size=num_taps)
            outs = []
            for sizes in chunkings:
                got = _returns(StreamingFir(taps), x, sizes)
                _assert_same_returns(got, _returns(StreamingFirRef(taps), x, sizes))
                outs.append(np.concatenate(got))
            for other in outs[1:]:
                assert np.array_equal(outs[0], other)
            # Group delay compensated: output aligns with the input length.
            assert outs[0].size == x.size

    def test_delay_compensation_centres_impulse(self):
        taps = np.zeros(31)
        taps[15] = 1.0  # pure delay equal to the compensation
        x = np.zeros(500)
        x[100] = 1.0
        fir = StreamingFir(taps)
        y = _run_chunked(fir, x, [64])
        assert y.size == x.size
        assert np.argmax(np.abs(y)) == 100


class TestFmLinkStream:
    def test_chunk_invariance(self, burst):
        _, wave, _ = burst
        peak = float(np.max(np.abs(wave)))
        for rssi_dbm in (-70.0, -80.0, -95.0):
            outs = []
            for sizes in ([wave.size], [4800], [997], [17]):
                stream = FmRadioLink(seed=13).stream(rssi_dbm, peak_estimate=peak)
                got = _returns(stream, wave, sizes)
                ref = fm_link_stream_ref(FmRadioLink(seed=13), rssi_dbm, peak)
                _assert_same_returns(got, _returns(ref, wave, sizes))
                outs.append(np.concatenate(got))
            for other in outs[1:]:
                assert np.array_equal(outs[0], other)
            assert outs[0].size == wave.size

    def test_noise_blocks_match_scaled_complex_sum(self):
        stream = FmRadioLink(seed=5).stream(-80.0)
        ref = fm_link_stream_ref(FmRadioLink(seed=5), -80.0, 1.0)
        for n in (1, 4_999, NOISE_BLOCK, 2 * NOISE_BLOCK + 7, 300):
            assert np.array_equal(stream._noise(n), ref._noise(n))
        assert stream._noise_pos == ref._noise_pos
        assert ref._noise.__func__ is fm_noise_ref

    def test_decodes_at_good_rssi_not_at_bad(self, burst):
        modem, wave, payloads = burst
        peak = float(np.max(np.abs(wave)))

        def decode(rssi):
            stream = FmRadioLink(seed=29).stream(rssi, peak_estimate=peak)
            rx = StreamingReceiver(modem, frames_per_burst=len(payloads))
            frames = []
            for i in range(0, wave.size, 4800):
                frames += rx.push(stream.process(wave[i : i + 4800]))
            tail = stream.finish()
            if tail.size:
                frames += rx.push(tail)
            return frames + rx.finish()

        good = decode(-70.0)
        assert [f.payload for f in good if f.ok] == payloads
        bad = decode(-95.0)  # beyond the FM threshold cliff
        assert sum(1 for f in bad if f.ok) < len(payloads)

    def test_noise_stream_ids_differ_per_open(self, burst):
        """Two streams from one link draw independent noise."""
        _, wave, _ = burst
        link = FmRadioLink(seed=41)
        peak = float(np.max(np.abs(wave)))
        a = _run_chunked(link.stream(-80.0, peak), wave, [4800])
        b = _run_chunked(link.stream(-80.0, peak), wave, [4800])
        assert not np.array_equal(a, b)
