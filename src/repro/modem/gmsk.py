"""GMSK data-over-sound modem.

Quiet (the library SONIC builds on) ships GMSK profiles alongside OFDM;
minimum-shift keying with a Gaussian pulse filter is the classic
constant-envelope modulation (GSM's physical layer).  Constant envelope
matters on the audio path: it survives speaker/amplifier clipping that
would crush a high-PAPR OFDM waveform, at the price of a lower bit rate.

Implementation: bits -> NRZ -> Gaussian filter (BT configurable) ->
phase integration with modulation index 0.5 -> upconversion to an audio
carrier.  The receiver downconverts to I/Q, differentiates the phase,
matched-filters, and recovers symbol timing from the preamble chirp.

The batch receive path runs the frequency discriminator once per burst
over a bounded window (the original decoder re-filtered everything from
each peak to the end of the capture), makes all four sub-symbol timing
hypotheses with one vectorised gather-sum each, and locates the sync
word with a sliding-window comparison.  A cheap header peek sizes the
decode window from the recovered length field, so short frames never pay
for the 4 KiB worst case.  The tests pin it to the seed's scalar decoder,
``tests/reference/modems.py::gmsk_receive_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from repro.dsp.chirp import linear_chirp
from repro.dsp.filters import fir_lowpass, filter_signal
from repro.fec.crc import pack_u16_frame, unpack_u16_frame
from repro.modem.message import MessageModem, PreambleSync
from repro.util.bits import bits_to_bytes, bytes_to_bits

__all__ = ["GmskConfig", "GmskModem"]


@dataclass(frozen=True)
class GmskConfig:
    """GMSK dimensioning."""

    sample_rate: float = 48_000.0
    carrier_hz: float = 9_200.0  # SONIC's audio carrier
    symbol_rate: float = 4_800.0
    bt: float = 0.3  # Gaussian filter bandwidth-time product
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        sps = self.sample_rate / self.symbol_rate
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError("sample_rate must be an integer multiple of symbol_rate")
        if not 0.1 <= self.bt <= 1.0:
            raise ValueError("BT product out of the practical range [0.1, 1.0]")
        if self.carrier_hz + self.symbol_rate > self.sample_rate / 2:
            raise ValueError("carrier + symbol rate exceeds Nyquist")

    @property
    def samples_per_symbol(self) -> int:
        return int(round(self.sample_rate / self.symbol_rate))

    @property
    def raw_bit_rate(self) -> float:
        return self.symbol_rate  # 1 bit per symbol


def _gaussian_taps(bt: float, sps: int, span_symbols: int = 4) -> np.ndarray:
    """Gaussian pulse-shaping filter, unit DC gain."""
    t = np.arange(-span_symbols * sps, span_symbols * sps + 1) / sps
    alpha = np.sqrt(np.log(2.0) / 2.0) / bt
    taps = (np.sqrt(np.pi) / alpha) * np.exp(-((np.pi * t / alpha) ** 2))
    return taps / np.sum(taps)


class GmskModem(MessageModem):
    """Length-prefixed, CRC-16-protected GMSK transceiver."""

    MAX_PAYLOAD = 4_096
    SYNC_THRESHOLD = 0.4
    _SYNC_WORD = 0xD391  # 16-bit sync pattern after the preamble
    _SHIFT_LIMIT = 40  # bit-level sync search range

    def __init__(self, config: GmskConfig = GmskConfig()) -> None:
        self.config = config
        sps = config.samples_per_symbol
        self._pulse = _gaussian_taps(config.bt, sps)
        self._preamble = linear_chirp(
            config.carrier_hz - 3_000,
            config.carrier_hz + 3_000,
            0.03,
            config.sample_rate,
            amplitude=config.amplitude,
        )
        self._lp = fir_lowpass(config.symbol_rate, config.sample_rate, 127)
        self._sync_bits = bytes_to_bits(self._SYNC_WORD.to_bytes(2, "big"))
        # Group-delay of the pulse shaping centres decisions mid-symbol.
        self._delay = (self._pulse.size - 1) // 2
        # Samples whose discriminator output is settled: the low-pass FIR
        # reaches `lp.size // 2` samples ahead, so the trailing margin of
        # any window is edge-affected and never used for decisions.
        self._margin = self._lp.size + sps
        max_koff = 3 * sps // 4
        # Header peek: enough settled bits to run the full sync-shift
        # search plus the 16-bit length field under every timing offset.
        hdr_bits = self._SHIFT_LIMIT + 16 + 16
        self._hdr_need = self._delay + max_koff + (hdr_bits + 1) * sps + self._margin
        # Hard ceiling: the largest frame the sync search can ever accept.
        cap_bits = self._SHIFT_LIMIT + 16 + (4 + self.MAX_PAYLOAD) * 8 + 1
        self._cap = self._delay + max_koff + cap_bits * sps + self._margin
        self.sync = PreambleSync(self._preamble, threshold=self.SYNC_THRESHOLD)

    # -- modulation ------------------------------------------------------------

    def _phase_from_bits(self, bits: np.ndarray) -> np.ndarray:
        cfg = self.config
        sps = cfg.samples_per_symbol
        nrz = 2.0 * bits.astype(np.float64) - 1.0
        impulses = np.zeros(bits.size * sps)
        impulses[::sps] = nrz
        shaped = signal.fftconvolve(impulses, self._pulse * sps, mode="full")
        # Modulation index 0.5: +/- pi/2 phase advance per symbol.
        return np.cumsum(shaped) * (np.pi / 2.0) / sps

    def transmit(self, payload: bytes) -> np.ndarray:
        """Encode ``payload`` (1..4096 bytes) into audio."""
        if not 0 < len(payload) <= self.MAX_PAYLOAD:
            raise ValueError(f"payload must be 1..{self.MAX_PAYLOAD} bytes")
        cfg = self.config
        # The two alternating pad bytes ahead of the sync word absorb the
        # chirp detector's +/- few-bit timing slop in both directions.
        bits = bytes_to_bits(pack_u16_frame(payload, self._SYNC_WORD))
        # Pad tail so the Gaussian filter ring-out stays in-frame.
        bits = np.concatenate([bits, np.zeros(8, dtype=np.uint8)])
        phase = self._phase_from_bits(bits)
        t = np.arange(phase.size) / cfg.sample_rate
        body = cfg.amplitude * np.cos(2 * np.pi * cfg.carrier_hz * t + phase)
        return np.concatenate([self._preamble, body])

    # -- demodulation ------------------------------------------------------------

    def _instantaneous_freq(self, samples: np.ndarray) -> np.ndarray:
        """Frequency discriminator output around the carrier (rad/sample)."""
        cfg = self.config
        n = samples.size
        t = np.arange(n) / cfg.sample_rate
        lo = np.exp(-2j * np.pi * cfg.carrier_hz * t)
        baseband = samples * lo
        i = filter_signal(self._lp, baseband.real)
        q = filter_signal(self._lp, baseband.imag)
        z = i + 1j * q
        freq = np.angle(z[1:] * np.conj(z[:-1]))
        return np.concatenate([[0.0], freq])

    def _decode_bits_batch(self, freq: np.ndarray, delay: int, sps: int) -> np.ndarray:
        """Integrate frequency over each symbol: positive net phase = 1."""
        max_bits = (freq.size - delay) // sps
        if max_bits <= 0:
            return np.zeros(0, dtype=np.uint8)
        centers = delay + np.arange(max_bits) * sps
        idx = np.minimum(centers[:, None] + np.arange(sps)[None, :], freq.size - 1)
        sums = freq[idx].sum(axis=1)
        return (sums > 0).astype(np.uint8)

    def _sync_shifts(self, bits: np.ndarray) -> np.ndarray:
        """All shifts (ascending, ref search order) where the sync word lands."""
        limit = min(bits.size - 16, self._SHIFT_LIMIT)
        if limit < 0:
            return np.zeros(0, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(bits[: limit + 16], 16)
        return np.flatnonzero((windows == self._sync_bits).all(axis=1))

    def _frame_from_bits_batch(self, bits: np.ndarray) -> bytes | None:
        if bits.size < 48:
            return None
        for shift in self._sync_shifts(bits):
            frame = bits[shift + 16 :]
            usable = frame[: (frame.size // 8) * 8]
            if usable.size < 32:
                continue
            payload = unpack_u16_frame(bits_to_bytes(usable))
            if payload is not None:
                return payload
        return None

    def _decode_window(self, window: np.ndarray) -> bytes | None:
        """Full decode of one canonical post-preamble window."""
        sps = self.config.samples_per_symbol
        freq = self._instantaneous_freq(window)
        for k in range(4):
            bits = self._decode_bits_batch(freq, self._delay + k * sps // 4, sps)
            message = self._frame_from_bits_batch(bits)
            if message is not None:
                return message
        return None

    def _need_from_header(self, body: np.ndarray) -> int | None:
        """Decode-window budget from the header peek, or ``None`` if no
        sync candidate can ever produce a frame (early reject)."""
        sps = self.config.samples_per_symbol
        freq = self._instantaneous_freq(body[: self._hdr_need])
        trusted = freq.size - self._margin
        need: int | None = None
        for k in range(4):
            delay = self._delay + k * sps // 4
            n_bits = (trusted - delay) // sps
            if n_bits <= 0:
                continue
            bits = self._decode_bits_batch(freq, delay, sps)[:n_bits]
            for shift in self._sync_shifts(bits):
                length = int.from_bytes(
                    np.packbits(bits[shift + 16 : shift + 32]).tobytes(), "big"
                )
                if length == 0:
                    continue
                last_bit = shift + 16 + (4 + length) * 8
                cand = delay + (last_bit + 1) * sps + self._margin
                need = cand if need is None else max(need, cand)
        return min(need, self._cap) if need is not None else None

    def decode_attempt(self, body: np.ndarray, eos: bool) -> tuple[str, bytes | None]:
        """Incremental decode of the samples following one sync peak.

        The decode window is a canonical function of the capture content
        (header peek -> sample budget), so chunk-fed and whole-capture
        decoding examine byte-identical windows.
        """
        sps = self.config.samples_per_symbol
        if body.size <= 8 * sps:
            return ("done", None) if eos else ("need", 8 * sps + 1)
        if body.size < self._hdr_need:
            if not eos:
                return ("need", self._hdr_need)
            return ("done", self._decode_window(body))
        need = self._need_from_header(body)
        if need is None:
            return ("done", None)
        if body.size >= need:
            return ("done", self._decode_window(body[:need]))
        if eos:
            return ("done", self._decode_window(body))
        return ("need", need)

    def transmission_seconds(self, payload_len: int) -> float:
        """Airtime for a payload of the given length."""
        n_bits = (2 + 2 + 2 + payload_len + 2) * 8 + 8
        return (
            self._preamble.size / self.config.sample_rate
            + n_bits / self.config.raw_bit_rate
        )
