"""A GGwave-style multi-tone FSK modem (baseline).

Section 2 of the paper compares SONIC's OFDM profile against simpler
data-over-sound tools: GGwave reaches ~128 bps using frequency-shift
keying.  This module implements that class of modem — 4 bits per symbol,
one of 16 tones per symbol slot, non-coherent energy detection — so the
rate comparison in the RATES benchmark is measured rather than quoted.

The receive path is batched: every symbol window in a message is scored
against the whole tone bank in one strided-window matrix product, and
symbol/byte packing runs through ``np.unpackbits``/``np.packbits``.  The
tests pin it to the seed's per-symbol scalar decoder,
``tests/reference/modems.py::fsk_receive_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.chirp import linear_chirp
from repro.fec.crc import crc16_ccitt
from repro.modem.message import MessageStreamingReceiver, PreambleSync

__all__ = ["FskConfig", "FskModem"]


@dataclass(frozen=True)
class FskConfig:
    """Tone plan and timing for the FSK modem."""

    sample_rate: float = 48_000.0
    base_freq_hz: float = 1_875.0
    tone_spacing_hz: float = 187.5
    num_tones: int = 16
    symbol_duration_s: float = 0.030
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        top = self.base_freq_hz + self.tone_spacing_hz * (self.num_tones - 1)
        if top >= self.sample_rate / 2:
            raise ValueError("tone plan exceeds Nyquist frequency")
        if self.num_tones not in (2, 4, 16):
            raise ValueError("num_tones must be 2, 4 or 16")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.num_tones))

    @property
    def symbol_samples(self) -> int:
        return int(round(self.symbol_duration_s * self.sample_rate))

    @property
    def raw_bit_rate(self) -> float:
        return self.bits_per_symbol / self.symbol_duration_s

    def tone_freq(self, index: int) -> float:
        return self.base_freq_hz + index * self.tone_spacing_hz


class FskModem:
    """Length-prefixed, CRC-16-protected FSK transceiver."""

    MAX_PAYLOAD = 255
    SYNC_THRESHOLD = 0.4

    def __init__(self, config: FskConfig = FskConfig()) -> None:
        self.config = config
        self._preamble = linear_chirp(
            1_000.0, 5_000.0, 0.060, config.sample_rate, amplitude=config.amplitude
        )
        n = config.symbol_samples
        t = np.arange(n) / config.sample_rate
        window = np.hanning(n)
        self._tones = np.stack(
            [
                np.sin(2 * np.pi * config.tone_freq(i) * t) * window
                for i in range(config.num_tones)
            ]
        )
        # Tone bank transposed once for the strided-window batch product.
        self._bank = np.ascontiguousarray(self._tones.T)
        self.sync = PreambleSync(self._preamble, threshold=self.SYNC_THRESHOLD)

    def _symbols_for(self, message: bytes) -> np.ndarray:
        """Split bytes into tone indices (nibbles, high first, for 16 tones)."""
        bits_per = self.config.bits_per_symbol
        data = np.frombuffer(message, dtype=np.uint8)
        weights = 1 << np.arange(bits_per - 1, -1, -1)
        groups = np.unpackbits(data).reshape(-1, bits_per)
        return (groups * weights).sum(axis=1).astype(np.int64)

    # -- transmit ----------------------------------------------------------

    def transmit(self, payload: bytes) -> np.ndarray:
        """Encode a variable-length payload (<= 255 bytes) into audio."""
        if not 0 < len(payload) <= self.MAX_PAYLOAD:
            raise ValueError(f"payload must be 1..{self.MAX_PAYLOAD} bytes")
        crc = crc16_ccitt(payload)
        message = bytes([len(payload)]) + payload + crc.to_bytes(2, "big")
        symbols = self._symbols_for(message)
        body = self.config.amplitude * self._tones[symbols].reshape(-1)
        return np.concatenate([self._preamble, body])

    # -- receive -----------------------------------------------------------

    def _detect_symbols(self, flat: np.ndarray) -> np.ndarray:
        """Tone decisions for a run of back-to-back symbol windows."""
        windows = flat.reshape(-1, self.config.symbol_samples)
        energies = windows @ self._bank
        return np.argmax(np.abs(energies), axis=1)

    def _pack_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Pack tone indices back into bytes (inverse of `_symbols_for`)."""
        bits_per = self.config.bits_per_symbol
        bits = np.unpackbits(symbols.astype(np.uint8)[:, None], axis=1)[:, 8 - bits_per :]
        return np.packbits(bits.ravel())

    def decode_attempt(self, body: np.ndarray, eos: bool) -> tuple[str, bytes | None]:
        """Incremental decode of the samples following one sync peak."""
        cfg = self.config
        sym_n = cfg.symbol_samples
        per_byte = 8 // cfg.bits_per_symbol
        header = per_byte * sym_n
        if body.size < header:
            return ("done", None) if eos else ("need", header)
        n = int(self._pack_symbols(self._detect_symbols(body[:header]))[0])
        if n == 0:
            return ("done", None)
        total = (1 + n + 2) * per_byte * sym_n
        if body.size < total:
            return ("done", None) if eos else ("need", total)
        data = self._pack_symbols(self._detect_symbols(body[:total]))
        payload = data[1 : 1 + n].tobytes()
        stored = int.from_bytes(data[1 + n : 1 + n + 2].tobytes(), "big")
        if crc16_ccitt(payload) == stored:
            return ("done", payload)
        return ("done", None)

    def stream(self) -> MessageStreamingReceiver:
        """Chunk-fed receiver, bit-identical to :meth:`receive`."""
        return MessageStreamingReceiver(self)

    def receive(self, samples: np.ndarray) -> list[bytes]:
        """Decode every FSK message found in ``samples`` (batch path)."""
        rx = self.stream()
        messages = rx.push(np.asarray(samples, dtype=np.float64))
        return messages + rx.finish()

    def transmission_seconds(self, payload_len: int) -> float:
        """Airtime for a payload of the given length."""
        per_byte = 8 // self.config.bits_per_symbol
        n_syms = (1 + payload_len + 2) * per_byte
        return (
            self._preamble.size / self.config.sample_rate
            + n_syms * self.config.symbol_duration_s
        )
