"""Failure-injection fuzzing: damaged inputs fail loudly and typed.

A broadcast system feeds its parsers whatever the air delivers.  Every
decoder in the stack must respond to arbitrary corruption with its
documented exception (or an empty result) — never a hang, never a
foreign traceback, never silently wrong data that passes a checksum.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.imaging.codec import CodecError, SWebpCodec
from repro.transport.bundle import BundleTransport, PageBundle
from repro.transport.framing import FRAME_SIZE, PAYLOAD_SIZE, Frame
from repro.web.clickmap import ClickMap, ClickRegion


@pytest.fixture(scope="module")
def encoded_image(photo_image) -> bytes:
    return SWebpCodec(30).encode(photo_image)


class TestCodecFuzz:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.floats(min_value=0.01, max_value=0.99))
    def test_truncation_raises_codec_error(self, encoded_image, cut):
        truncated = encoded_image[: max(1, int(len(encoded_image) * cut))]
        with pytest.raises(CodecError):
            SWebpCodec().decode(truncated)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000))
    def test_corruption_contained(self, encoded_image, seed):
        """Byte corruption either decodes to *an image* or raises
        CodecError — nothing else escapes."""
        rng = np.random.default_rng(seed)
        data = bytearray(encoded_image)
        for pos in rng.choice(len(data), size=8, replace=False):
            data[pos] = int(rng.integers(0, 256))
        try:
            image = SWebpCodec().decode(bytes(data))
            assert image.dtype == np.uint8
        except CodecError:
            pass

    @settings(max_examples=20, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=200))
    def test_garbage_raises(self, junk):
        with pytest.raises(CodecError):
            SWebpCodec().decode(junk)


class TestFrameFuzz:
    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(min_size=FRAME_SIZE, max_size=FRAME_SIZE))
    def test_random_frames_parse_or_valueerror(self, data):
        try:
            frame = Frame.from_bytes(data)
            assert len(frame.payload) == PAYLOAD_SIZE
        except ValueError:
            pass

    def test_bundle_reassembly_rejects_mixed_totals(self):
        bt = BundleTransport()
        a = bt.chunk(bytes(200), page_id=1)
        b = bt.chunk(bytes(500), page_id=1)
        with pytest.raises(ValueError):
            bt.reassemble(a + b)


class TestBundleFuzz:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10_000))
    def test_corrupted_bundle_contained(self, photo_image, seed):
        bundle = PageBundle("x.pk/", photo_image, ClickMap([ClickRegion(0, 0, 5, 5, "x.pk/a")]))
        data = bytearray(bundle.to_bytes())
        rng = np.random.default_rng(seed)
        for pos in rng.choice(len(data), size=12, replace=False):
            data[pos] = int(rng.integers(0, 256))
        try:
            restored = PageBundle.from_bytes(bytes(data))
            assert restored.image.dtype == np.uint8
        except (ValueError, CodecError):
            pass

    @settings(max_examples=20, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=100))
    def test_garbage_bundle_raises(self, junk):
        with pytest.raises((ValueError, CodecError)):
            PageBundle.from_bytes(junk)

    @settings(max_examples=20, deadline=None)
    @given(junk=st.binary(min_size=2, max_size=120))
    def test_garbage_clickmap_contained(self, junk):
        try:
            cm = ClickMap.from_bytes(junk)
            assert isinstance(len(cm), int)
        except ValueError:
            pass


class TestPageAssemblyFuzz:
    """``SonicClient.on_frames`` is the frame trust boundary: whatever
    mix of frames the air delivers, it never raises and never caches a
    page that was not sent."""

    @pytest.fixture(scope="class")
    def sent(self, photo_image):
        """Three small real bundles, each on its own page id and version."""
        out = []
        for i in range(3):
            image = np.roll(photo_image[:24, :40], 9 * i, axis=1)
            clicks = ClickMap([ClickRegion(0, 0, 8, 8, f"p{i}.pk/a")])
            data = PageBundle(f"p{i}.pk/", image, clicks).to_bytes()
            frames = BundleTransport().chunk(data, page_id=i + 1, version=i)
            out.append((PageBundle.from_bytes(data).to_bytes(), frames))
        return out

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_client_caches_only_sent_pages(self, sent, mixed_bundle_frames, data):
        from repro.client.client import ClientProfile, SonicClient
        from repro.sim.geometry import Location
        from repro.transport.metadata import CatalogAnnouncement, CatalogEntryInfo

        def copies(frames):
            """Each frame dropped, kept or duplicated."""
            counts = data.draw(
                st.lists(st.integers(0, 2), min_size=len(frames), max_size=len(frames))
            )
            return [f for f, n in zip(frames, counts) for _ in range(n)], min(counts)

        stream, all_arrived = [], []
        for _, frames in sent:
            kept, least = copies(frames)
            stream += kept
            all_arrived.append(least > 0)
        announcement = CatalogAnnouncement(
            "s", [CatalogEntryInfo(f"p{i}.pk/", i + 1, i, 500, 5.0) for i in range(3)]
        )
        stream += copies(announcement.to_frames())[0]
        blob = data.draw(st.binary(min_size=1, max_size=4 * PAYLOAD_SIZE))
        stream += copies(BundleTransport().chunk(blob, page_id=50))[0]
        stream += copies(mixed_bundle_frames)[0]
        stream += [None] * data.draw(st.integers(0, 4))
        stream = data.draw(st.permutations(stream))
        # Frames with a conflicting total, each placed after the first
        # real frame of its version so that version's slots stay held.
        for _ in range(data.draw(st.integers(0, 4))):
            _, frames = sent[data.draw(st.integers(0, len(sent) - 1))]
            total = frames[0].header.total
            seq = data.draw(st.integers(0, total - 1))
            liar_total = data.draw(
                st.integers(seq + 1, total + 2).filter(lambda t: t != total)
            )
            real = frames[seq]
            liar = Frame(replace(real.header, total=liar_total), real.payload)
            key = (real.header.page_id, real.header.col)
            first = next(
                (i for i, f in enumerate(stream) if f is not None
                 and (f.header.page_id, f.header.col) == key),
                len(stream),
            )
            stream.insert(data.draw(st.integers(first + 1, len(stream) + 1)), liar)

        client = SonicClient(ClientProfile("u", Location(31.5, 74.3)))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=4)))
        for t, (lo, hi) in enumerate(zip([0] + cuts, cuts + [len(stream)])):
            client.on_frames(stream[lo:hi], now=float(t))

        assert client.frames_seen == len(stream)
        sent_bytes = {blob for blob, _ in sent}
        for url in client.cache.urls():
            assert client.cache.get(url, 0.0).to_bytes() in sent_bytes
        for i, arrived in enumerate(all_arrived):
            if arrived:
                assert f"p{i}.pk/" in client.cache


class TestModemFuzz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_input_never_crashes(self, quick_modem, seed):
        rng = np.random.default_rng(seed)
        noise = rng.normal(0, 0.5, 40_000)
        for frame in quick_modem.receive(noise):
            assert frame.payload is None or len(frame.payload) == 100

    def test_dc_and_silence(self, quick_modem):
        assert quick_modem.receive(np.zeros(30_000)) == []
        assert quick_modem.receive(np.ones(30_000) * 0.3) == []

    def test_clipped_transmission_still_detected(self, quick_modem):
        rng = np.random.default_rng(3)
        payload = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
        wave = np.clip(quick_modem.transmit_frame(payload) * 4, -0.4, 0.4)
        frames = quick_modem.receive(wave)
        assert len(frames) == 1  # detected; decode may or may not survive
