"""Batched soft-decision Viterbi equivalence against the scalar reference.

The seed's per-timestep decoder lives in ``tests/reference/fec.py`` as
``viterbi_decode_ref``; these property tests pin ``decode_soft_batch``
(and ``decode_soft``, one row of it) to it bit-for-bit across random
lengths and noise levels, including the regimes that exercise each
internal path:

* hard-decision-perfect inputs (the algebraic clean-codeword fast path),
* inputs with exact-zero soft values (which must *bypass* the fast path),
* hard ties between trellis predecessors, and
* batches larger than the ACS chunk size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fec.convolutional import CONV_V27, CONV_V29
from tests.reference.fec import viterbi_decode_ref

CODES = {"v27": CONV_V27, "v29": CONV_V29}


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
