"""Batched soft-decision Viterbi equivalence against the scalar reference.

The seed's per-timestep decoder lives in ``tests/reference/fec.py`` as
``viterbi_decode_ref``; these property tests pin ``decode_soft_batch``
(and ``decode_soft``, one row of it) to it bit-for-bit across random
lengths and noise levels, including the regimes that exercise each
internal path:

* hard-decision-perfect inputs (the algebraic clean-codeword fast path),
* inputs with exact-zero soft values (which must *bypass* the fast path),
* hard ties between trellis predecessors,
* frames that span several branch-metric time blocks, and
* batches larger than the ACS chunk size.

``CODES`` holds both of Quiet's codes and a K=3 code, whose 4-state
trellis puts the butterfly's predecessor arithmetic at its smallest.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fec.convolutional import CONV_V27, CONV_V29, ConvolutionalCode
from repro.modem.modem import Modem
from tests.reference.fec import viterbi_decode_ref

CODES = {
    "v27": CONV_V27,
    "v29": CONV_V29,
    "k3": ConvolutionalCode(3, (0b111, 0b101)),
}
_BLOCK = ConvolutionalCode._TIME_BLOCK


@pytest.mark.parametrize("name", CODES)
class TestBatchMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        n_frames=st.integers(min_value=1, max_value=6),
        n_info=st.integers(min_value=1, max_value=120),
        noise=st.floats(min_value=0.0, max_value=1.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_lengths_and_noise(self, name, n_frames, n_info, noise, seed):
        code = CODES[name]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (n_frames, n_info), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits).astype(np.float64)
        soft = soft + rng.normal(0.0, noise, soft.shape)
        batch = code.decode_soft_batch(soft, n_info)
        for i in range(n_frames):
            assert (batch[i] == viterbi_decode_ref(code, soft[i], n_info)).all()

    def test_clean_codewords_roundtrip(self, name):
        code = CODES[name]
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (16, 96), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits).astype(np.float64)
        assert (code.decode_soft_batch(soft, 96) == bits).all()

    def test_exact_zero_soft_values_match_reference(self, name):
        """Zero-confidence bits must not take the algebraic fast path."""
        code = CODES[name]
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, (8, 64), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits).astype(np.float64)
        # Erase a handful of positions per frame to exactly 0.0.
        for i in range(soft.shape[0]):
            soft[i, rng.choice(soft.shape[1], 5, replace=False)] = 0.0
        batch = code.decode_soft_batch(soft, 64)
        for i in range(soft.shape[0]):
            assert (batch[i] == viterbi_decode_ref(code, soft[i], 64)).all()

    def test_hard_ties_match_reference(self, name):
        """Quantised soft values force metric ties; both paths must break
        them identically (towards predecessor 0)."""
        code = CODES[name]
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (8, 48), dtype=np.uint8)
        coded = code.encode_batch(bits)
        soft = (1.0 - 2.0 * coded.astype(np.float64))
        flip = rng.random(soft.shape) < 0.2
        soft = np.where(flip, -soft, soft)  # hard errors, all-equal confidence
        batch = code.decode_soft_batch(soft, 48)
        for i in range(soft.shape[0]):
            assert (batch[i] == viterbi_decode_ref(code, soft[i], 48)).all()

    @pytest.mark.parametrize(
        "total", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 100]
    )
    def test_frames_across_time_blocks(self, name, total):
        """Frames of ``total`` bit times, below, at and past the edges of
        the branch-metric time blocks."""
        code = CODES[name]
        n_info = total - (code.constraint - 1)
        rng = np.random.default_rng(total)
        bits = rng.integers(0, 2, (3, n_info), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits).astype(np.float64)
        soft += rng.normal(0.0, 0.9, soft.shape)
        batch = code.decode_soft_batch(soft, n_info)
        for i in range(soft.shape[0]):
            assert (batch[i] == viterbi_decode_ref(code, soft[i], n_info)).all()


class TestBatchMechanics:
    def test_wrapper_equals_batch_row(self):
        code = CONV_V29
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 80, dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode(bits).astype(np.float64)
        soft += rng.normal(0.0, 0.8, soft.size)
        assert (
            code.decode_soft(soft, 80)
            == code.decode_soft_batch(soft[None, :], 80)[0]
        ).all()

    def test_handset_frame_at_7_db(self):
        """The handset's v29 frame (960 info bits, 968 bit times) as the
        OFDM demapper hands it over from the wire delivery's 7 dB
        channel: many time blocks, and every frame misses the
        clean-codeword shortcut."""
        modem = Modem()
        rng = np.random.default_rng(17)
        n_frames = 4
        wave = modem.transmit_burst(
            [rng.bytes(modem.frame_payload_size) for _ in range(n_frames)]
        )
        sigma = np.sqrt(np.mean(wave**2) / 10.0 ** (7.0 / 10.0))
        noisy = wave + rng.normal(0.0, sigma, wave.size)
        demod = modem.phy.demodulate(
            noisy,
            modem._preamble.size + modem.profile.guard_samples,
            n_frames * modem._n_payload_symbols,
        )
        soft = modem.phy.constellation.demap_soft(
            demod.data_symbols.reshape(-1), demod.noise_var
        ).reshape(n_frames, -1)[:, : modem.codec.frame_bits]
        code = CONV_V29
        n_info = soft.shape[1] // code.n_out - (code.constraint - 1)
        assert n_info == 960
        hard = (soft < 0).astype(np.uint8)
        batch = code.decode_soft_batch(soft, n_info)
        for i in range(n_frames):
            assert (code.encode(batch[i]) != hard[i]).any()  # full trellis
            assert (batch[i] == viterbi_decode_ref(code, soft[i], n_info)).all()

    def test_batch_larger_than_chunk(self):
        code = CONV_V27
        n = code._FRAME_CHUNK + 3  # force the chunked ACS path to wrap
        rng = np.random.default_rng(13)
        bits = rng.integers(0, 2, (n, 24), dtype=np.uint8)
        soft = 1.0 - 2.0 * code.encode_batch(bits).astype(np.float64)
        soft += rng.normal(0.0, 1.0, soft.shape)
        batch = code.decode_soft_batch(soft, 24)
        for i in range(0, n, 17):
            assert (batch[i] == viterbi_decode_ref(code, soft[i], 24)).all()

    def test_shape_validation(self):
        code = CONV_V27
        with pytest.raises(ValueError):
            code.decode_soft(np.zeros((2, 8)), 2)
        with pytest.raises(ValueError):
            code.decode_soft_batch(np.zeros(8), 2)
        with pytest.raises(ValueError):
            code.decode_soft_batch(np.zeros((1, 7)), 2)  # odd coded length
