"""Shared fixtures: small deterministic inputs that keep tests fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.modem.frame import FecConfig
from repro.modem.modem import Modem
from repro.modem.ofdm import OfdmConfig
from repro.modem.profiles import ModemProfile
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def page_image() -> np.ndarray:
    """A small rendered webpage screenshot (deterministic)."""
    gen = SiteGenerator(seed=1, n_sites=1)
    renderer = PageRenderer(width=480, max_height=900)
    return renderer.render(gen.page(gen.all_urls()[0], 0)).image


@pytest.fixture(scope="session")
def photo_image() -> np.ndarray:
    """A dense photo-like image exercising the codec's AC paths."""
    r = np.random.default_rng(7)
    base = r.integers(0, 256, (96, 128, 3)).astype(np.float64)
    # Smooth it a little so it is compressible but non-trivial.
    kernel = np.ones(5) / 5
    for axis in (0, 1):
        base = np.apply_along_axis(
            lambda v: np.convolve(v, kernel, mode="same"), axis, base
        )
    return np.clip(base, 0, 255).astype(np.uint8)


@pytest.fixture(scope="session")
def quick_profile() -> ModemProfile:
    """A reduced-size OFDM profile for fast modem tests."""
    return ModemProfile(
        name="test-quick",
        ofdm=OfdmConfig(fft_size=512, cp_len=64, first_bin=80, num_subcarriers=48),
        fec=FecConfig(payload_size=100, rs_nsym=8, rs_max_block=64, conv="v27"),
        preamble_duration_s=0.02,
    )


@pytest.fixture(scope="session")
def quick_modem(quick_profile) -> Modem:
    return Modem(quick_profile)


@pytest.fixture(scope="session")
def site_generator() -> SiteGenerator:
    return SiteGenerator(seed=42)


@pytest.fixture(scope="session")
def mixed_bundle_frames(photo_image) -> list:
    """Frames of two real bundles with equal frame counts, alternated
    under one ``(page_id, version)`` (page 60): they reassemble into a
    blob with bundle magic whose image does not decode."""
    from repro.imaging.codec import CodecError
    from repro.transport.bundle import BundleTransport, PageBundle
    from repro.web.clickmap import ClickMap

    image = photo_image[:24, :40]
    a, b = (
        BundleTransport().chunk(
            PageBundle("m.pk/", img, ClickMap()).to_bytes(), page_id=60, version=1
        )
        for img in (image, image[:, ::-1])
    )
    assert len(a) == len(b) > 1
    mixed = [fa if i % 2 == 0 else fb for i, (fa, fb) in enumerate(zip(a, b))]
    with pytest.raises(CodecError):
        PageBundle.from_bytes(BundleTransport().reassemble(mixed))
    return mixed
