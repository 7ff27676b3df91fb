"""System-level configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.framing import FRAME_SIZE

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Dimensioning of a full SONIC simulation.

    The defaults keep end-to-end runs fast (a small corpus rendered at
    phone width); the paper-scale corpus (25 sites, 1080-wide renders,
    10k pixel height) is what the benchmarks configure explicitly.
    """

    seed: int = 0
    n_sites: int = 4
    render_width: int = 360
    max_pixel_height: int | None = 2_000
    broadcast_rate_bps: float = 10_000.0
    sms_number: str = "+92300766421"
    auto_hourly_push: bool = True

    @property
    def frames_per_second(self) -> float:
        """Frames emitted per second at the broadcast rate."""
        return self.broadcast_rate_bps / (8 * FRAME_SIZE)
