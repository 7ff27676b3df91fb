"""Chunk-capable channel processors for the streaming broadcast engine.

Each stream consumes audio one chunk at a time and carries its filter,
phase, and RNG state across chunk boundaries, so a 48-hour broadcast
flows through the channel in O(chunk) memory:

* :class:`AwgnStream` — additive white noise; chunked draws continue the
  generator stream, so output is bit-identical to one whole-array draw.
* :class:`AcousticStream` — the speaker-to-microphone hop, and its only
  implementation: :meth:`AcousticChannel.transmit` runs it as one chunk.
  Given the total sample count and whole-signal power up front (both
  known for a scheduled broadcast) its output is **bit-identical** for
  any chunking: reverb carries an input tail, flutter knots are drawn
  once for the whole length, and noise is drawn sequentially.
* :class:`FmLinkStream` — a streaming FM chain (audio -> multiplex ->
  FM -> RF noise -> discriminator -> audio) built from block-anchored
  FFT overlap-save FIRs (:class:`StreamingFir`) and carry-over phase
  accumulators.  Its output is invariant to the chunk size (filters
  convolve fixed absolute-index blocks, RF noise is drawn in fixed
  absolute-index blocks), though it is a distinct filter implementation
  from the whole-array :meth:`FmRadioLink.transmit`, whose fftconvolve
  chain stays untouched for the calibrated RSSI experiments.

All streams share one interface: ``process(chunk) -> ndarray`` (may
return fewer samples than consumed while filters fill) and
``finish() -> ndarray`` (the flushed tail; total output length equals
total input length).
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import BlockConvolver, fir_lowpass
from repro.radio.channels import AcousticChannel, FmLinkConfig, FmRadioLink
from repro.radio.multiplex import MultiplexConfig
from repro.util.rng import derive_rng

__all__ = [
    "AwgnStream",
    "AcousticStream",
    "FmLinkStream",
    "StreamingFir",
]

#: RF noise is drawn per absolute-index block of this many samples so
#: the noise sequence never depends on how the input was chunked.
NOISE_BLOCK = 1 << 16


class AwgnStream:
    """Additive white Gaussian noise with a carried-over generator.

    Sequential ``Generator.normal`` draws continue the underlying bit
    stream exactly, so chunked processing reproduces a single whole-
    array draw bit-for-bit — this is what makes the fleet's loss maps
    independent of its chunk size.
    """

    def __init__(self, rng: np.random.Generator, sigma: float) -> None:
        self._rng = rng
        self.sigma = float(sigma)

    def process(self, chunk: np.ndarray) -> np.ndarray:
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size == 0:
            return chunk
        return chunk + self._rng.normal(0.0, self.sigma, chunk.size)

    def finish(self) -> np.ndarray:
        return np.zeros(0)


class AcousticStream:
    """The :class:`AcousticChannel` hop, one chunk at a time.

    It draws, in order: the flutter knots (one array sized from the
    total length) and the misalignment penalty (one draw) at
    construction, then the noise sequentially per chunk, which continues
    the generator bit stream.  Knowing ``total_samples`` and the
    whole-signal ``signal_power`` up front — both are known for a
    scheduled broadcast — makes the output identical for any chunking,
    and equal to one whole-array pass: room reverb, a flutter gain
    interpolated between the knots, then white noise.
    """

    def __init__(
        self,
        channel: AcousticChannel,
        distance_m: float,
        total_samples: int,
        signal_power: float,
    ) -> None:
        if total_samples < 0:
            raise ValueError("total_samples must be >= 0")
        cfg = channel.config
        self.config = cfg
        self.distance_m = float(distance_m)
        self.total_samples = int(total_samples)
        self._pos = 0
        self._rng = derive_rng(channel._seed, "acoustic", channel._calls)
        channel._calls += 1

        self._taps: list[tuple[int, float]] = []
        self._knots_db: np.ndarray | None = None
        self._knot_samples = max(1, int(cfg.flutter_knot_s * cfg.sample_rate))
        if distance_m > 0:
            for delay_ms, gain in zip(cfg.reverb_delays_ms, cfg.reverb_gains):
                shift = int(delay_ms * 1e-3 * cfg.sample_rate)
                # Each echo is gated on the *total* length.
                if 0 < shift < total_samples:
                    self._taps.append((shift, gain))
            sigma = cfg.flutter_sigma_base_db + cfg.flutter_sigma_db_per_m * distance_m
            n_knots = total_samples // self._knot_samples + 2
            self._knots_db = self._rng.normal(0.0, sigma, n_knots)
            snr_db = channel.effective_snr_db(distance_m, self._rng)
        else:
            snr_db = cfg.cable_snr_db
        noise_power = signal_power / (10.0 ** (snr_db / 10.0))
        self._noise_sigma = float(np.sqrt(max(noise_power, 0.0)))
        self._max_shift = max((s for s, _ in self._taps), default=0)
        self._tail = np.zeros(0)  # last max_shift input samples

    def process(self, chunk: np.ndarray) -> np.ndarray:
        chunk = np.asarray(chunk, dtype=np.float64)
        if self._pos + chunk.size > self.total_samples:
            raise ValueError("more samples pushed than total_samples")
        if chunk.size == 0:
            return chunk
        out = chunk.copy()
        if self.distance_m > 0:
            ext = np.concatenate([self._tail, chunk])
            base = ext.size - chunk.size  # index of chunk[0] within ext
            for shift, gain in self._taps:
                # echo[i] = gain * audio[pos + i - shift]; samples before
                # the stream start contribute nothing.
                src_lo = base - shift
                n_skip = max(0, -(self._pos - shift))  # leading zeros
                if n_skip < chunk.size:
                    seg = ext[src_lo + n_skip : src_lo + chunk.size]
                    out[n_skip : n_skip + seg.size] += gain * seg
            if self._max_shift:
                self._tail = ext[-self._max_shift :]
            # Slow gain flutter: neither the phone nor the radio is held
            # still, so the effective gain wanders during a transmission.
            x = np.arange(self._pos, self._pos + chunk.size) / self._knot_samples
            gain_db = np.interp(x, np.arange(self._knots_db.size), self._knots_db)
            out = out * (10.0 ** (gain_db / 20.0))
        out = out + self._rng.normal(0.0, self._noise_sigma, out.size)
        self._pos += chunk.size
        return out

    def finish(self) -> np.ndarray:
        return np.zeros(0)


class StreamingFir:
    """Causal FIR over fixed absolute-index blocks, chunk-invariant.

    ``lfilter`` with a carried state is *not* bit-reproducible across
    chunk boundaries (scipy's summation order differs near the start of
    each call), so this filter is overlap-save on a
    :class:`~repro.dsp.filters.BlockConvolver`: the buffer it convolves
    always starts ``taps - 1`` samples of context before a block
    boundary anchored at an absolute stream position.  Every output
    sample is then computed from exactly the same input window with
    exactly the same arithmetic no matter how the input was chunked, and
    equals a per-block ``fftconvolve(..., "valid")`` bit for bit.
    The first ``(taps-1)//2`` outputs (the group delay) are dropped and
    the same number of zeros is flushed at the end, so the output is
    time-aligned with the input and equal in length, like
    :func:`repro.dsp.filters.filter_signal` for whole arrays.
    """

    def __init__(self, taps: np.ndarray) -> None:
        m = np.asarray(taps).size
        self._conv = BlockConvolver(taps, max(4096, 4 * m))
        self.delay = (m - 1) // 2
        self._to_drop = self.delay
        # The last taps-1 filtered inputs (the context), then the inputs
        # not yet filtered.
        self._buf = np.zeros(m - 1)
        self._flushed = False

    def _filter(self, x: np.ndarray, final: bool = False) -> np.ndarray:
        buf = np.concatenate([self._buf, x])
        parts = list(self._conv.batches(buf, final))
        y = np.concatenate(parts) if parts else np.zeros(0)
        self._buf = buf[y.size :]
        if self._to_drop:
            n = min(self._to_drop, y.size)
            self._to_drop -= n
            y = y[n:]
        return y

    def process(self, x: np.ndarray) -> np.ndarray:
        if self._flushed:
            raise RuntimeError("filter already flushed")
        return self._filter(np.asarray(x, dtype=np.float64))

    def flush(self) -> np.ndarray:
        """Emit the buffered tail; total output length equals input."""
        if self._flushed:
            return np.zeros(0)
        self._flushed = True
        # The delay-compensation zeros land at a position fixed by the
        # total input length alone, so the flush is chunk-invariant too.
        return self._filter(np.zeros(self.delay), final=True)


class _Upsampler:
    """Integer-factor polyphase upsampler (zero-stuff + streaming FIR)."""

    def __init__(self, factor: int, taps: np.ndarray) -> None:
        self.factor = factor
        self._fir = StreamingFir(np.asarray(taps, dtype=np.float64) * factor)

    def _stuff(self, x: np.ndarray) -> np.ndarray:
        stuffed = np.zeros(x.size * self.factor)
        stuffed[:: self.factor] = x
        return stuffed

    def process(self, x: np.ndarray) -> np.ndarray:
        if x.size == 0:
            return np.zeros(0)
        return self._fir.process(self._stuff(x))

    def flush(self) -> np.ndarray:
        return self._fir.flush()


class _Decimator:
    """Anti-aliased integer-factor decimator on an absolute-index grid.

    Keeping samples whose *absolute* filtered-stream index is a multiple
    of the factor makes the output independent of chunk boundaries.
    """

    def __init__(self, factor: int, taps: np.ndarray) -> None:
        self.factor = factor
        self._fir = StreamingFir(taps)
        self._abs = 0

    def _take(self, x: np.ndarray) -> np.ndarray:
        if x.size == 0:
            return np.zeros(0)
        first = (-self._abs) % self.factor
        out = x[first :: self.factor].copy()
        self._abs += x.size
        return out

    def process(self, x: np.ndarray) -> np.ndarray:
        return self._take(self._fir.process(x))

    def flush(self) -> np.ndarray:
        return self._take(self._fir.flush())


class FmLinkStream:
    """Streaming FM transmitter-to-tuner hop at a fixed RSSI.

    The chain mirrors :meth:`FmRadioLink.transmit` hop for hop — mono
    low-pass, x4 multiplex upsample, x2 RF upsample, phase integration,
    complex AWGN, phase-difference discrimination, /2 and /4 back to the
    audio rate — but every stage is stateful, so the output for a given
    input is the same for ANY chunking.  Two deliberate differences from
    the batch method keep it causal and chunk-invariant: the input scale
    is fixed up front (``peak_estimate``) instead of measured from the
    whole array, and RF noise comes from absolute-index blocks of a
    derived generator rather than one whole-capture draw.
    """

    def __init__(
        self,
        link: FmRadioLink,
        rssi_dbm: float,
        peak_estimate: float = 1.0,
    ) -> None:
        cfg: FmLinkConfig = link.config
        mpx_cfg = MultiplexConfig(audio_rate=cfg.audio_rate, mpx_rate=cfg.mpx_rate)
        self.config = cfg
        self.rssi_dbm = float(rssi_dbm)
        if peak_estimate <= 0:
            raise ValueError("peak_estimate must be positive")
        self._scale = cfg.audio_headroom / float(peak_estimate)
        self._mono_level = mpx_cfg.mono_level
        up_mpx = int(round(cfg.mpx_rate / cfg.audio_rate))
        up_rf = int(round(cfg.rf_rate / cfg.mpx_rate))
        self._rf_rate = cfg.rf_rate
        self._deviation = cfg.max_deviation_hz

        self._lp_audio = StreamingFir(
            fir_lowpass(mpx_cfg.mono_cutoff_hz, cfg.audio_rate, 127)
        )
        self._up_mpx = _Upsampler(
            up_mpx, fir_lowpass(0.45 * cfg.audio_rate, cfg.mpx_rate, 127)
        )
        self._up_rf = _Upsampler(
            up_rf, fir_lowpass(0.45 * cfg.mpx_rate, cfg.rf_rate, 127)
        )
        self._down_rf = _Decimator(
            up_rf, fir_lowpass(0.45 * cfg.mpx_rate, cfg.rf_rate, 127)
        )
        self._down_audio = _Decimator(
            up_mpx,
            fir_lowpass(mpx_cfg.mono_cutoff_hz + 1_000.0, cfg.mpx_rate, 511),
        )

        cnr_db = rssi_dbm - cfg.noise_floor_dbm
        self._noise_amp = float(np.sqrt(10.0 ** (-cnr_db / 10.0) / 2.0))
        self._noise_seed = link._seed
        self._noise_stream = link._calls
        link._calls += 1
        self._noise_pos = 0
        self._noise_cache: tuple[int, np.ndarray] | None = None

        self._phase_carry = 0.0  # running cumsum of the RF drive signal
        self._iq_carry: np.complex128 | None = None  # last RF sample
        self._first_delta: bool = True
        self.samples_in = 0
        self.samples_out = 0
        self._finished = False

    # -- noise -------------------------------------------------------------

    def _noise(self, n: int) -> np.ndarray:
        """Complex AWGN for the next ``n`` RF samples, chunk-invariant.

        Sample ``i`` of the stream always comes from block ``i //
        NOISE_BLOCK`` of a generator derived from the block index, so the
        noise a given RF sample sees never depends on chunk boundaries.
        """
        out = np.empty(n, dtype=np.complex128)
        filled = 0
        pos = self._noise_pos
        while filled < n:
            block_idx, offset = divmod(pos, NOISE_BLOCK)
            if self._noise_cache is None or self._noise_cache[0] != block_idx:
                rng = derive_rng(
                    self._noise_seed, "fm-stream-noise", self._noise_stream, block_idx
                )
                raw = rng.normal(size=2 * NOISE_BLOCK)
                # Scaling each part in place equals scaling the complex
                # sum bit for bit: amp * (re + 0j) is exactly amp * re.
                noise = np.empty(NOISE_BLOCK, dtype=np.complex128)
                noise.real = self._noise_amp * raw[:NOISE_BLOCK]
                noise.imag = self._noise_amp * raw[NOISE_BLOCK:]
                self._noise_cache = (block_idx, noise)
            take = min(n - filled, NOISE_BLOCK - offset)
            out[filled : filled + take] = self._noise_cache[1][offset : offset + take]
            filled += take
            pos += take
        self._noise_pos = pos
        return out

    # -- chain stages ------------------------------------------------------
    # Each helper enters the chain at one hop so finish() can flush the
    # stages in order, feeding every tail through the remaining hops.

    def _from_mono(self, mono: np.ndarray) -> np.ndarray:
        return self._from_mpx(self._up_mpx.process(mono) * self._mono_level)

    def _from_mpx(self, mpx: np.ndarray) -> np.ndarray:
        return self._from_rf(self._up_rf.process(mpx))

    def _from_rf(self, rf_in: np.ndarray) -> np.ndarray:
        if rf_in.size == 0:
            return np.zeros(0)
        # Prepending the carry *inside* the cumsum keeps the sequential
        # accumulation order of a whole-array cumsum, hence bit-exact
        # results for any chunking.
        csum = np.cumsum(np.concatenate([[self._phase_carry], rf_in]))[1:]
        self._phase_carry = float(csum[-1])
        phase = 2.0 * np.pi * self._deviation * csum / self._rf_rate
        iq = np.exp(1j * phase) + self._noise(rf_in.size)

        if self._iq_carry is None:
            pair = iq
        else:
            pair = np.concatenate([[self._iq_carry], iq])
        delta = np.angle(pair[1:] * np.conj(pair[:-1]))
        self._iq_carry = iq[-1]
        if self._first_delta and delta.size:
            # The batch discriminator duplicates its first difference to
            # keep input and output lengths equal; do the same once.
            delta = np.concatenate([[delta[0]], delta])
            self._first_delta = False
        mpx_rx = delta * self._rf_rate / (2.0 * np.pi * self._deviation)
        return self._from_mpx_rx(mpx_rx)

    def _from_mpx_rx(self, mpx_rx: np.ndarray) -> np.ndarray:
        return self._from_mono_mpx(self._down_rf.process(mpx_rx))

    def _from_mono_mpx(self, mono_mpx: np.ndarray) -> np.ndarray:
        out = self._down_audio.process(mono_mpx)
        return out / (self._mono_level * self._scale)

    def process(self, chunk: np.ndarray) -> np.ndarray:
        if self._finished:
            raise RuntimeError("stream already finished")
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.size == 0:
            return np.zeros(0)
        self.samples_in += chunk.size
        out = self._from_mono(self._lp_audio.process(chunk * self._scale))
        self.samples_out += out.size
        return out

    def finish(self) -> np.ndarray:
        """Flush every stage in order; output length equals input length."""
        if self._finished:
            return np.zeros(0)
        self._finished = True
        parts = [
            self._from_mono(self._lp_audio.flush()),
            self._from_mpx(self._up_mpx.flush() * self._mono_level),
            self._from_rf(self._up_rf.flush()),
            self._from_mono_mpx(self._down_rf.flush()),
            self._down_audio.flush() / (self._mono_level * self._scale),
        ]
        tail = np.concatenate(parts)
        # Stage flushes are sized by each filter's group delay, so the
        # chain emits exactly the input length; trim defensively anyway.
        tail = tail[: max(0, self.samples_in - self.samples_out)]
        self.samples_out += tail.size
        return tail
