"""SONIC core: the end-to-end system composed from every substrate."""

from repro.core.config import SystemConfig
from repro.core.pipeline import (
    LossSimulation,
    frames_to_waveform,
    waveform_to_frames,
    simulate_column_loss,
)
from repro.core.stream import (
    CarouselFrameSource,
    StreamSession,
    StreamStats,
    WaveformSource,
)
from repro.core.system import SonicSystem

__all__ = [
    "SystemConfig",
    "SonicSystem",
    "WaveformSource",
    "CarouselFrameSource",
    "StreamSession",
    "StreamStats",
    "LossSimulation",
    "frames_to_waveform",
    "waveform_to_frames",
    "simulate_column_loss",
]
