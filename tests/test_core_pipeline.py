"""End-to-end pipelines: audio delivery and the Figure-1 degradation path."""

import numpy as np
import pytest

from repro.core.pipeline import (
    frames_to_waveform,
    simulate_column_loss,
    waveform_to_frames,
)
from repro.transport.partition import ColumnTransport


class TestAudioPipeline:
    def test_frames_survive_audio_roundtrip(self, quick_modem, page_image):
        # A small slice keeps the modem work bounded.
        small = page_image[:60, :8]
        frames = ColumnTransport("rle").partition(small, page_id=2)
        assert frames
        wave = frames_to_waveform(frames, quick_modem, frames_per_burst=8)
        received = waveform_to_frames(wave, quick_modem, frames_per_burst=8)
        assert len(received) == len(frames)
        assert all(r is not None for r in received)
        got = {r.header.seq: r for r in received}
        for f in frames:
            # Received payloads carry the wire padding; the prefix and
            # header must match exactly.
            assert got[f.header.seq].header == f.header
            assert got[f.header.seq].payload[: len(f.payload)] == f.payload

    def test_lost_frames_reported_as_none(self, quick_modem, page_image):
        small = page_image[:40, :4]
        frames = ColumnTransport("rle").partition(small, page_id=2)
        wave = frames_to_waveform(frames, quick_modem, frames_per_burst=8)
        rng = np.random.default_rng(0)
        noisy = wave + rng.normal(0, 0.35, wave.size)
        received = waveform_to_frames(noisy, quick_modem, frames_per_burst=8)
        assert any(r is None for r in received) or len(received) < len(frames)

    def test_empty_input(self, quick_modem):
        assert frames_to_waveform([], quick_modem).size == 0


class TestColumnLossSimulation:
    def test_loss_rate_approximated(self, page_image):
        sim = simulate_column_loss(page_image, 0.10, seed=1)
        assert sim.frame_loss_rate == pytest.approx(0.10, abs=0.03)
        assert sim.pixel_loss_rate == pytest.approx(0.10, abs=0.03)

    def test_zero_loss_identity(self, page_image):
        sim = simulate_column_loss(page_image, 0.0, seed=1)
        assert not sim.missing.any()
        assert np.array_equal(sim.damaged, page_image)

    def test_interpolation_beats_dark_pixels(self, page_image):
        """The core Figure 1 claim, as metrics."""
        sim = simulate_column_loss(page_image, 0.10, seed=2)
        assert sim.psnr_interpolated() > sim.psnr_damaged() + 5
        assert sim.ssim_interpolated() > sim.ssim_damaged()

    def test_monotone_damage(self, page_image):
        psnrs = [
            simulate_column_loss(page_image, l, seed=3).psnr_damaged()
            for l in (0.05, 0.20, 0.50)
        ]
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_rle_mode(self, page_image):
        sim = simulate_column_loss(page_image, 0.10, seed=4, mode="rle")
        assert 0.02 < sim.pixel_loss_rate < 0.30

    def test_invalid_loss_rate(self, page_image):
        with pytest.raises(ValueError):
            simulate_column_loss(page_image, 1.0)
