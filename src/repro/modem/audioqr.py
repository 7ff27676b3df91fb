"""An AudioQR-class long-range chirp modem (baseline).

Section 2: "AudioQR works in the near-ultrasonic frequency band
(17.5-19.5 kHz) and can reach low speeds of about 100 bps while
supporting long distances (up to 150 meters)."  The trick behind that
range is spreading every symbol over a long chirp: matched filtering
buys tens of dB of processing gain, trading throughput for distance.

This baseline encodes each bit as an up- or down-chirp in the
near-ultrasonic band and decodes by correlating against both templates —
the design point SONIC rejects ("sacrifices transmission speed for high
distance, while we target very low air distance").

The receive path correlates every bit window against both chirp
templates in one batched matrix product.  The tests pin it to the seed's
per-bit scalar decoder, ``tests/reference/modems.py::audioqr_receive_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.chirp import linear_chirp
from repro.fec.crc import crc16_ccitt
from repro.modem.message import MessageStreamingReceiver, PreambleSync
from repro.util.bits import bits_to_bytes, bytes_to_bits

__all__ = ["AudioQrConfig", "AudioQrModem"]


@dataclass(frozen=True)
class AudioQrConfig:
    """Chirp plan: near-ultrasonic, long symbols."""

    sample_rate: float = 48_000.0
    band_low_hz: float = 17_500.0
    band_high_hz: float = 19_500.0
    symbol_duration_s: float = 0.010  # 100 bps
    amplitude: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.band_low_hz < self.band_high_hz < self.sample_rate / 2:
            raise ValueError("invalid chirp band")
        if self.symbol_duration_s <= 0:
            raise ValueError("symbol duration must be positive")

    @property
    def raw_bit_rate(self) -> float:
        return 1.0 / self.symbol_duration_s

    @property
    def symbol_samples(self) -> int:
        return int(round(self.symbol_duration_s * self.sample_rate))


class AudioQrModem:
    """1 bit per chirp: up-chirp = 1, down-chirp = 0."""

    MAX_PAYLOAD = 255
    SYNC_THRESHOLD = 0.35

    def __init__(self, config: AudioQrConfig = AudioQrConfig()) -> None:
        self.config = config
        cfg = config
        self._up = linear_chirp(
            cfg.band_low_hz, cfg.band_high_hz, cfg.symbol_duration_s,
            cfg.sample_rate, amplitude=1.0,
        )
        self._down = linear_chirp(
            cfg.band_high_hz, cfg.band_low_hz, cfg.symbol_duration_s,
            cfg.sample_rate, amplitude=1.0,
        )
        # Frame marker: a double-length up-down sweep.
        marker = np.concatenate([self._up, self._down])
        self._marker = marker * cfg.amplitude
        # Both templates side by side for the batched bit decisions.
        self._templates = np.column_stack([self._up, self._down])
        self.sync = PreambleSync(self._marker, threshold=self.SYNC_THRESHOLD)

    def transmit(self, payload: bytes) -> np.ndarray:
        """Encode 1..255 bytes as a chirp train."""
        if not 0 < len(payload) <= self.MAX_PAYLOAD:
            raise ValueError(f"payload must be 1..{self.MAX_PAYLOAD} bytes")
        message = bytes([len(payload)]) + payload + crc16_ccitt(payload).to_bytes(2, "big")
        bits = bytes_to_bits(message)
        cfg = self.config
        chunks = [self._marker]
        for bit in bits:
            chunks.append(cfg.amplitude * (self._up if bit else self._down))
        return np.concatenate(chunks)

    # -- receive -----------------------------------------------------------

    def _detect_bits(self, flat: np.ndarray) -> np.ndarray:
        """Up-vs-down decisions for a run of back-to-back bit windows."""
        windows = flat.reshape(-1, self.config.symbol_samples)
        energies = windows @ self._templates
        return (np.abs(energies[:, 0]) > np.abs(energies[:, 1])).astype(np.uint8)

    def decode_attempt(self, body: np.ndarray, eos: bool) -> tuple[str, bytes | None]:
        """Incremental decode of the samples following one marker peak."""
        n_sym = self.config.symbol_samples
        header = 8 * n_sym
        if body.size < header:
            return ("done", None) if eos else ("need", header)
        n = int(np.packbits(self._detect_bits(body[:header]))[0])
        if n == 0:
            return ("done", None)
        total_bits = (1 + n + 2) * 8
        total = total_bits * n_sym
        if body.size < total:
            return ("done", None) if eos else ("need", total)
        stream = bits_to_bytes(self._detect_bits(body[:total]))
        payload = stream[1 : 1 + n]
        stored = int.from_bytes(stream[1 + n : 1 + n + 2], "big")
        if crc16_ccitt(payload) == stored:
            return ("done", payload)
        return ("done", None)

    def stream(self) -> MessageStreamingReceiver:
        """Chunk-fed receiver, bit-identical to :meth:`receive`."""
        return MessageStreamingReceiver(self)

    def receive(self, samples: np.ndarray) -> list[bytes]:
        """Decode every message found in ``samples`` (batch path)."""
        rx = self.stream()
        messages = rx.push(np.asarray(samples, dtype=np.float64))
        return messages + rx.finish()

    def transmission_seconds(self, payload_len: int) -> float:
        n_bits = (1 + payload_len + 2) * 8
        return (
            self._marker.size / self.config.sample_rate
            + n_bits * self.config.symbol_duration_s
        )
