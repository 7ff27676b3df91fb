"""Batch frame-pipeline equivalence and broadcast encode caching.

Pins the batch entry points of the frame pipeline — convolutional
encode/Viterbi, the block interleaver, the frame codec, and the modem
burst.  The convolutional encoder is compared with the ``np.convolve``
reference in ``tests/reference/fec.py``; the interleaver and the frame
codec check that a batch equals its rows batched alone (the single-item
calls are one-row batches), and golden digests pin the frame's bit
layout (CRC-32, RS, interleave, scramble, convolutional code) for each
configuration.  Then exercises the transmitter-side LRU so a repeat
broadcast of unchanged content provably performs no re-encode.
"""

import hashlib

import numpy as np
import pytest

from repro.fec.convolutional import CONV_V27, CONV_V29, ConvolutionalCode
from repro.fec.interleaver import BlockInterleaver
from repro.modem.frame import FecConfig, FrameCodec
from repro.modem.modem import Modem
from repro.server.server import ServerConfig, SonicServer
from repro.server.transmitters import (
    BroadcastEncodeCache,
    Transmitter,
    TransmitterRegistry,
    payload_digest,
)
from repro.sim.geometry import Location
from repro.sms.gateway import GatewayConfig, SmsGateway
from repro.transport.bundle import BundleTransport
from repro.web.sites import SiteGenerator
from tests.reference.fec import conv_encode_ref

_LAHORE = Location(31.5204, 74.3587)


class TestConvolutionalBatch:
    @pytest.mark.parametrize("code", [CONV_V27, CONV_V29], ids=["v27", "v29"])
    def test_encode_batch_matches_per_row(self, code):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, (6, 120), dtype=np.uint8)
        batch = code.encode_batch(bits)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], conv_encode_ref(code, bits[i]))

    @pytest.mark.parametrize("code", [CONV_V27, CONV_V29], ids=["v27", "v29"])
    def test_decode_soft_batch_matches_per_row(self, code):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, (5, 96), dtype=np.uint8)
        coded = code.encode_batch(bits)
        soft = (1.0 - 2.0 * coded) + rng.normal(0, 0.6, coded.shape)
        batch = code.decode_soft_batch(soft, 96)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], code.decode_soft(soft[i], 96))

    def test_small_code_batch(self):
        code = ConvolutionalCode(3, (0b111, 0b101))
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (4, 40), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits)
        np.testing.assert_array_equal(code.decode_soft_batch(soft, 40), bits)


class TestInterleaverBatch:
    def test_many_matches_per_row(self):
        il = BlockInterleaver(4, 17)
        rng = np.random.default_rng(8)
        values = rng.integers(0, 256, (5, 68), dtype=np.uint8)
        inter = il.interleave_many(values)
        for i in range(5):
            np.testing.assert_array_equal(inter[i], il.interleave(values[i]))
        np.testing.assert_array_equal(il.deinterleave_many(inter), values)

    def test_shape_validated(self):
        il = BlockInterleaver(4, 17)
        with pytest.raises(ValueError):
            il.interleave_many(np.zeros((2, 67), dtype=np.uint8))


_CONFIGS = [
    FecConfig(),
    FecConfig(conv="none", rs_erasures=True),
    FecConfig(conv="v27", interleave=False),
    FecConfig(rs_nsym=0),
    FecConfig(rs_nsym=0, conv="none", scramble=False),
]

# sha256 (first 16 hex digits) of ``encode_batch`` over the five
# ``_encode_payloads`` for each of ``_CONFIGS``, in order.  They pin the
# frame's bit layout, which round trips cannot see.
_ENCODE_DIGESTS = [
    "edf4856399061a4f",
    "d998b1562a7d3ab3",
    "797f7ac024a4ac36",
    "a2eb60062647b9d3",
    "3a0086424c2d592d",
]


def _encode_payloads(config: FecConfig) -> list[bytes]:
    rng = np.random.default_rng(9)
    return [
        rng.integers(0, 256, config.payload_size, dtype=np.uint8).tobytes()
        for _ in range(5)
    ]


class TestFrameCodecBatch:
    @pytest.mark.parametrize("config", _CONFIGS)
    def test_encode_batch_matches_per_frame(self, config):
        codec = FrameCodec(config)
        payloads = _encode_payloads(config)
        batch = codec.encode_batch(payloads)
        for i, payload in enumerate(payloads):
            np.testing.assert_array_equal(batch[i], codec.encode(payload))

    @pytest.mark.parametrize(
        "config, digest", list(zip(_CONFIGS, _ENCODE_DIGESTS))
    )
    def test_encode_batch_golden_digest(self, config, digest):
        bits = FrameCodec(config).encode_batch(_encode_payloads(config))
        assert hashlib.sha256(bits.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("config", _CONFIGS)
    def test_decode_batch_matches_per_frame(self, config):
        codec = FrameCodec(config)
        rng = np.random.default_rng(10)
        payloads = [
            rng.integers(0, 256, config.payload_size, dtype=np.uint8).tobytes()
            for _ in range(4)
        ]
        bits = codec.encode_batch(payloads)
        soft = (1.0 - 2.0 * bits) + rng.normal(0, 0.25, bits.shape)
        decoded = codec.decode_batch(soft)
        for i in range(4):
            try:
                expected = codec.decode(soft[i])
            except Exception:
                expected = None
            assert decoded[i] == expected

    def test_decode_batch_survivors_with_one_dead_frame(self):
        codec = FrameCodec()
        rng = np.random.default_rng(12)
        payloads = [bytes([i] * 100) for i in range(3)]
        bits = codec.encode_batch(payloads)
        soft = 1.0 - 2.0 * bits.astype(np.float64)
        soft[1] = -soft[1]  # frame 1 inverted beyond any FEC's reach
        decoded = codec.decode_batch(soft)
        assert decoded[0] == payloads[0]
        assert decoded[1] is None
        assert decoded[2] == payloads[2]

    def test_encode_batch_validates_payload_size(self):
        with pytest.raises(ValueError):
            FrameCodec().encode_batch([b"short"])


class TestModemBurst:
    def test_burst_roundtrip(self):
        modem = Modem("sonic-ofdm")
        rng = np.random.default_rng(13)
        payloads = [
            rng.integers(0, 256, modem.frame_payload_size, dtype=np.uint8).tobytes()
            for _ in range(4)
        ]
        wave = modem.transmit_burst(payloads)
        results = modem.receive(wave)
        assert [r.payload for r in results if r.ok] == payloads


class TestBroadcastEncodeCache:
    def test_frame_cache_hits_and_misses(self):
        cache = BroadcastEncodeCache()
        transport = BundleTransport()
        data = b"page-bytes" * 40
        first = cache.frames(data, page_id=1, version=0, transport=transport)
        again = cache.frames(data, page_id=1, version=0, transport=transport)
        assert again is first
        assert cache.stats.frame_hits == 1 and cache.stats.frame_misses == 1
        cache.frames(data, page_id=1, version=1, transport=transport)
        assert cache.stats.frame_misses == 2  # new version is a new entry

    def test_lru_eviction(self):
        cache = BroadcastEncodeCache(capacity=2)
        transport = BundleTransport()
        for i in range(3):
            cache.frames(bytes([i]) * 50, page_id=i, version=0, transport=transport)
        assert len(cache) == 2
        cache.frames(b"\x00" * 50, page_id=0, version=0, transport=transport)
        assert cache.stats.frame_misses == 4  # oldest entry was evicted

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BroadcastEncodeCache(capacity=0)


class TestServerUsesCache:
    @pytest.fixture()
    def server_env(self):
        gateway = SmsGateway(GatewayConfig(loss_probability=0.0), seed=1)
        generator = SiteGenerator(seed=2, n_sites=2)
        registry = TransmitterRegistry(
            [Transmitter("lhr", _LAHORE, 93.7, coverage_km=30.0)]
        )
        server = SonicServer(
            generator,
            registry,
            gateway,
            ServerConfig(render_width=360, max_pixel_height=1_000),
        )
        return registry.get("lhr"), server

    def test_repeat_enqueue_chunks_once(self, server_env, monkeypatch):
        tx, server = server_env
        chunk_calls = []
        real_chunk = server._transport.chunk

        def counting(data, page_id=0, version=0):
            chunk_calls.append(page_id)
            return real_chunk(data, page_id=page_id, version=version)

        monkeypatch.setattr(server._transport, "chunk", counting)
        data = b"rendered bundle bytes" * 25
        url = "a.pk/"
        server.enqueue_broadcast(tx, url, data, priority=1.0, version=4)
        server.enqueue_broadcast(tx, url, data, priority=2.0, version=4)
        assert len(chunk_calls) == 1  # second broadcast re-used the frames
        assert tx.cache.stats.frame_hits == 1
        assert tx.carousel.queue_length() == 1  # digest match merged the entry

    def test_changed_content_misses(self, server_env):
        tx, server = server_env
        server.enqueue_broadcast(tx, "a.pk/", b"old" * 40, priority=1.0, version=0)
        server.enqueue_broadcast(tx, "a.pk/", b"new" * 40, priority=1.0, version=1)
        assert tx.cache.stats.frame_hits == 0
        assert tx.cache.stats.frame_misses == 2

    def test_carousel_items_carry_digest(self, server_env):
        tx, server = server_env
        data = b"digest me" * 30
        server.enqueue_broadcast(tx, "a.pk/", data, priority=1.0)
        item = tx.carousel.head()
        assert item is not None and item.digest == payload_digest(data)
