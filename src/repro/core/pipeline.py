"""End-to-end pipelines used by experiments and examples.

Two pipelines matter in the paper:

* the *delivery* pipeline — rendered page -> bundle bytes -> 100-byte
  frames -> OFDM audio -> FM/acoustic channel -> frames -> bundle; and
* the *degradation* pipeline behind Figures 1 and 5 — rendered page ->
  column frames -> synthetic loss -> missing pixels -> (optional)
  nearest-neighbour interpolation, with quality metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.client.streaming import parse_received
from repro.imaging.interpolate import interpolate_missing
from repro.imaging.metrics import psnr_db, ssim
from repro.modem.modem import Modem
from repro.transport.framing import Frame
from repro.transport.partition import ColumnTransport
from repro.util.rng import derive_rng

__all__ = [
    "frames_to_waveform",
    "waveform_to_frames",
    "LossSimulation",
    "simulate_column_loss",
]


def frames_to_waveform(
    frames: list[Frame], modem: Modem, frames_per_burst: int = 16
) -> np.ndarray:
    """Modulate transport frames into audio, bursting for efficiency.

    This is the canonical frames -> audio entry point, and the
    whole-broadcast wrapper over the chunked transmit engine
    (:class:`repro.core.stream.WaveformSource`): bursts of up to
    ``frames_per_burst`` frames go through the batched FEC + modulation
    path, separated by one ``guard_samples`` silence block *between*
    consecutive bursts.  No trailing guard is emitted after the final
    burst — the returned length equals :meth:`Modem.broadcast_samples`
    exactly, so airtime and goodput accounting line up.
    """
    if not frames:
        return np.zeros(0)
    from repro.core.stream import WaveformSource
    from repro.transport.framing import FRAME_SIZE

    if modem.frame_payload_size != FRAME_SIZE:
        raise ValueError(
            f"modem carries {modem.frame_payload_size}-byte payloads but "
            f"transport frames are {FRAME_SIZE} bytes"
        )
    bursts = (
        [f.to_bytes() for f in frames[i : i + frames_per_burst]]
        for i in range(0, len(frames), frames_per_burst)
    )
    source = WaveformSource(lambda: next(bursts, None), modem)
    return source.read_all()


def waveform_to_frames(
    samples: np.ndarray, modem: Modem, frames_per_burst: int = 16
) -> list[Frame | None]:
    """Demodulate audio back to transport frames (None = lost)."""
    return parse_received(modem.receive(samples, frames_per_burst=frames_per_burst))


@dataclass
class LossSimulation:
    """Outcome of the Figure-1 degradation pipeline for one page."""

    original: np.ndarray
    damaged: np.ndarray  # lost pixels black (Fig. 1 centre)
    interpolated: np.ndarray  # after NN recovery (Fig. 1 right)
    missing: np.ndarray  # boolean mask of lost pixels
    frame_loss_rate: float

    @property
    def pixel_loss_rate(self) -> float:
        return float(np.mean(self.missing))

    def psnr_damaged(self) -> float:
        return psnr_db(self.original, self.damaged)

    def psnr_interpolated(self) -> float:
        return psnr_db(self.original, self.interpolated)

    def ssim_damaged(self) -> float:
        return ssim(self.original, self.damaged)

    def ssim_interpolated(self) -> float:
        return ssim(self.original, self.interpolated)


def simulate_column_loss(
    image: np.ndarray,
    loss_rate: float,
    seed: int = 0,
    mode: str = "raw",
) -> LossSimulation:
    """Drop a uniform fraction of column frames, as the paper's study does.

    "we create screenshots of the top 50 Pakistani webpages with
    synthetic variable losses (5%, 10%, 20%, and 50%)" (Section 4).
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss rate must be in [0, 1)")
    image = np.asarray(image)
    transport = ColumnTransport(mode)
    h, w = image.shape[:2]
    regions = transport.frame_regions((h, w), image if mode == "rle" else None)
    rng = derive_rng(seed, "column-loss", int(loss_rate * 1000))
    lost = rng.random(len(regions)) < loss_rate

    missing = np.zeros((h, w), dtype=bool)
    for (col, row0, n), is_lost in zip(regions, lost):
        if is_lost:
            missing[row0 : row0 + n, col] = True
    damaged = image.copy()
    damaged[missing] = 0
    repaired = interpolate_missing(damaged, missing)
    return LossSimulation(
        original=image,
        damaged=damaged,
        interpolated=repaired,
        missing=missing,
        frame_loss_rate=float(np.mean(lost)),
    )
