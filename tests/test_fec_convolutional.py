"""Convolutional codes and the Viterbi decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fec.convolutional import CONV_V27, CONV_V29, ConvolutionalCode


class TestEncoder:
    def test_rate_and_lengths(self):
        assert CONV_V27.rate == 0.5
        bits = np.zeros(10, dtype=np.uint8)
        assert CONV_V27.encode(bits).size == CONV_V27.coded_length(10) == (10 + 6) * 2

    def test_zero_input_zero_output(self):
        coded = CONV_V27.encode(np.zeros(20, dtype=np.uint8))
        assert not coded.any()

    def test_linearity(self):
        # Convolutional codes are linear: enc(a^b) = enc(a)^enc(b).
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 64).astype(np.uint8)
        b = rng.integers(0, 2, 64).astype(np.uint8)
        lhs = CONV_V29.encode(a ^ b)
        rhs = CONV_V29.encode(a) ^ CONV_V29.encode(b)
        assert np.array_equal(lhs, rhs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CONV_V27.encode(np.zeros(0, dtype=np.uint8))

    def test_bad_constraint_rejected(self):
        with pytest.raises(ValueError):
            ConvolutionalCode(2, (0b11, 0b01))
        with pytest.raises(ValueError):
            ConvolutionalCode(7, (0o171,))
        with pytest.raises(ValueError):
            ConvolutionalCode(3, (0o171, 0o133))  # polys too wide

    def test_generator_without_oldest_tap_rejected(self):
        # The decoder's butterfly needs every generator to tap the
        # oldest bit (bit 0); 0b110 taps only the two newest.
        with pytest.raises(ValueError, match="oldest bit"):
            ConvolutionalCode(3, (0b111, 0b110))


class TestViterbi:
    @settings(max_examples=20, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=8, max_size=200),
    )
    def test_clean_roundtrip_v27(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        coded = CONV_V27.encode(arr)
        assert np.array_equal(CONV_V27.decode(coded, arr.size), arr)

    @pytest.mark.parametrize("code", [CONV_V27, CONV_V29], ids=["v27", "v29"])
    def test_corrects_scattered_bit_errors(self, code):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 400).astype(np.uint8)
        coded = code.encode(bits)
        noisy = coded.copy()
        flips = rng.choice(coded.size, size=int(0.03 * coded.size), replace=False)
        noisy[flips] ^= 1
        decoded = code.decode(noisy, bits.size)
        assert np.array_equal(decoded, bits)

    def test_soft_beats_hard_at_low_snr(self):
        rng = np.random.default_rng(4)
        trials = 15
        soft_errs = hard_errs = 0
        for t in range(trials):
            bits = rng.integers(0, 2, 200).astype(np.uint8)
            coded = CONV_V27.encode(bits)
            bipolar = 1.0 - 2.0 * coded.astype(np.float64)
            noisy = bipolar + rng.normal(0, 0.9, bipolar.size)
            soft = CONV_V27.decode_soft(noisy, bits.size)
            hard = CONV_V27.decode((noisy < 0).astype(np.uint8), bits.size)
            soft_errs += int(np.sum(soft != bits))
            hard_errs += int(np.sum(hard != bits))
        assert soft_errs <= hard_errs

    def test_wrong_length_rejected(self):
        coded = CONV_V27.encode(np.ones(10, dtype=np.uint8))
        with pytest.raises(ValueError):
            CONV_V27.decode(coded, 11)

    def test_v29_stronger_than_v27(self):
        # At a harsh flip rate the K=9 code should decode at least as well.
        rng = np.random.default_rng(5)
        errs = {}
        for code, name in ((CONV_V27, "v27"), (CONV_V29, "v29")):
            total = 0
            for t in range(8):
                bits = rng.integers(0, 2, 300).astype(np.uint8)
                coded = code.encode(bits)
                noisy = coded.copy()
                flips = rng.choice(
                    coded.size, size=int(0.065 * coded.size), replace=False
                )
                noisy[flips] ^= 1
                total += int(np.sum(code.decode(noisy, bits.size) != bits))
            errs[name] = total
        assert errs["v29"] <= errs["v27"]
