"""The audio-true full stack: render -> bundle -> frames -> OFDM audio ->
FM broadcast chain -> frames -> bundle -> browser.

The system-level simulations use the fitted loss model for speed; this
test runs one complete page through every real layer at least once, so
any cross-layer drift (frame sizes, header fields, codec format, modem
payload size) fails loudly here.
"""

import numpy as np
import pytest

from repro.client.client import ClientProfile, SonicClient
from repro.core.pipeline import frames_to_waveform, waveform_to_frames
from repro.imaging.metrics import psnr_db
from repro.modem.modem import Modem
from repro.radio.channels import FmRadioLink
from repro.sim.geometry import Location
from repro.transport.bundle import BundleTransport, PageBundle
from repro.web.render import PageRenderer
from repro.web.sites import SiteGenerator


@pytest.mark.slow
def test_full_stack_page_delivery():
    # 1. Render a small corpus page.
    generator = SiteGenerator(seed=3, n_sites=1)
    url = generator.all_urls()[0]
    rendered = PageRenderer(width=360, max_height=480).render(
        generator.page(url, hour=0)
    )

    # 2. Bundle (SWebp Q10 + click map) and chunk into 100-byte frames.
    bundle = PageBundle(url, rendered.image, rendered.clickmap, expiry_hours=6.0)
    data = bundle.to_bytes()
    frames = BundleTransport().chunk(data, page_id=1, version=0)
    assert len(frames) >= 4

    # 3. Modulate into audio and pass through the FM chain at -75 dB.
    modem = Modem("sonic-ofdm")
    wave = frames_to_waveform(frames, modem, frames_per_burst=16)
    link = FmRadioLink(seed=9)
    received_audio = link.transmit(wave, rssi_dbm=-75.0)

    # 4. Demodulate back to transport frames.
    received = waveform_to_frames(received_audio, modem, frames_per_burst=16)
    assert len(received) == len(frames)
    assert all(f is not None for f in received), "clean chain lost frames"

    # 5. Client assembles the bundle and the browser opens it.
    client = SonicClient(
        ClientProfile("it-user", Location(31.52, 74.36), connection="cable")
    )
    completed = client.on_frames(received, now=100.0)
    assert [b.url for b in completed] == [url]
    opened = client.browser.open(url, now=101.0)
    assert opened is not None
    # The delivered screenshot is exactly the Q10-coded render — the
    # radio path added zero image damage on top of the codec.
    from repro.imaging.codec import SWebpCodec

    codec_reference = SWebpCodec(10).decode(SWebpCodec(10).encode(rendered.image))
    assert np.array_equal(opened.image, codec_reference)
    assert psnr_db(rendered.image, opened.image) > 20  # Q10 fidelity class
    assert opened.clickmap.regions == rendered.clickmap.regions
    assert opened.expiry_hours == 6.0
