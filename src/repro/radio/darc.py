"""DARC: the 76 kHz high-rate FM subcarrier.

Figure 2 of the paper shows DARC (DAta Radio Channel) above RDS in the
FM baseband; the paper lists it among the bands that could raise SONIC's
rate.  Real DARC uses LMSK at 16 kbps — an order of magnitude above
RDS.  This implementation keeps the band plan and bit rate but uses
differentially-encoded BPSK (the same physical layer our RDS decoder
proved out), which is a documented simplification (DESIGN.md).

Framing: [0xB5B5 sync] [u16 length] [payload] [crc16], repeated as
needed.  At 16 kbps the channel moves a 300 KB SONIC page in ~2.5
minutes without touching the audio program at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import fir_lowpass, filter_signal
from repro.fec.crc import pack_u16_frame, unpack_u16_frame
from repro.util.bits import bits_to_bytes, bytes_to_bits

__all__ = ["DarcConfig", "DarcChannel"]

_SYNC = 0xB5B5


@dataclass(frozen=True)
class DarcConfig:
    """DARC band plan (ETSI EN 300 751 band, simplified modulation)."""

    mpx_rate: float = 192_000.0
    subcarrier_hz: float = 76_000.0
    bit_rate: float = 16_000.0

    def __post_init__(self) -> None:
        if self.subcarrier_hz + self.bit_rate >= self.mpx_rate / 2:
            raise ValueError("DARC band exceeds the multiplex Nyquist limit")


class DarcChannel:
    """Byte blobs <-> 76 kHz-centred waveforms at the multiplex rate."""

    MAX_PAYLOAD = 65_535

    def __init__(self, config: DarcConfig = DarcConfig()) -> None:
        self.config = config
        self._lp = fir_lowpass(config.bit_rate * 0.75, config.mpx_rate, 255)

    # -- encode ------------------------------------------------------------

    def encode(self, payload: bytes) -> np.ndarray:
        """Frame and modulate ``payload`` onto the 76 kHz subcarrier."""
        if not 0 < len(payload) <= self.MAX_PAYLOAD:
            raise ValueError(f"payload must be 1..{self.MAX_PAYLOAD} bytes")
        bits = bytes_to_bits(pack_u16_frame(payload, _SYNC))
        # Differential encoding (polarity-insensitive at the receiver).
        diff = np.zeros(bits.size, dtype=np.int64)
        prev = 0
        for i, b in enumerate(bits):
            prev ^= int(b)
            diff[i] = prev
        cfg = self.config
        spb = cfg.mpx_rate / cfg.bit_rate
        n = int(np.ceil(bits.size * spb)) + 1
        t = np.arange(n) / cfg.mpx_rate
        idx = np.minimum((t * cfg.bit_rate).astype(np.int64), diff.size - 1)
        levels = 2.0 * diff[idx] - 1.0
        return levels * np.cos(2.0 * np.pi * cfg.subcarrier_hz * t)

    # -- decode ------------------------------------------------------------

    def decode(self, band: np.ndarray) -> list[bytes]:
        """Recover every framed payload from the 76 kHz band signal."""
        cfg = self.config
        band = np.asarray(band, dtype=np.float64)
        if band.size < 64:
            return []
        t = np.arange(band.size) / cfg.mpx_rate
        z = band * np.exp(-2j * np.pi * cfg.subcarrier_hz * t)
        z = filter_signal(self._lp, z.real) + 1j * filter_signal(self._lp, z.imag)
        phase = 0.5 * np.angle(np.mean(z**2))
        x = (z * np.exp(-1j * phase)).real

        spb = cfg.mpx_rate / cfg.bit_rate
        n_bits = int(band.size / spb)
        if n_bits < 64:
            return []
        # Timing: choose the bit-clock offset with the widest eye.
        best = None
        for offset in np.linspace(0, spb, 8, endpoint=False):
            centers = (offset + (np.arange(n_bits) + 0.5) * spb).astype(np.int64)
            centers = centers[centers < x.size]
            vals = x[centers]
            metric = float(np.mean(np.abs(vals)))
            if best is None or metric > best[0]:
                best = (metric, vals)
        hard = (best[1] > 0).astype(np.uint8)
        bits = np.concatenate([[hard[0]], hard[1:] ^ hard[:-1]])
        return self._frames_from_bits(bits)

    @staticmethod
    def _frames_from_bits(bits: np.ndarray) -> list[bytes]:
        sync_bits = bytes_to_bits(_SYNC.to_bytes(2, "big"))
        out: list[bytes] = []
        i = 0
        limit = bits.size - 16
        while i <= limit:
            if not np.array_equal(bits[i : i + 16], sync_bits):
                i += 1
                continue
            body = bits[i + 16 :]
            usable = body[: (body.size // 8) * 8]
            if usable.size < 40:
                break
            payload = unpack_u16_frame(bits_to_bytes(usable))
            if payload is None:
                i += 1
                continue
            out.append(payload)
            i += 16 + (2 + len(payload) + 2) * 8
        return out

    def airtime_seconds(self, payload_len: int) -> float:
        return (2 + 2 + 2 + payload_len + 2) * 8 / self.config.bit_rate
