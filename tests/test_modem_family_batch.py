"""Batch modem-family decoders pinned against their scalar references.

The original per-symbol scalar decoder of each of the three baseline
modems (FSK, GMSK, AudioQR) lives in ``tests/reference/modems.py``; the
vectorised batch path (``receive``) must produce bit-identical message
lists on the same capture.  Equality is property-tested over fixed seeds
— payload sizes, message counts and noise levels vary per case, but the
RNG streams are pinned so the suite is deterministic (no FP-tie
flakiness).
"""

import numpy as np
import pytest

from repro.dsp.chirp import matched_filter_peak
from repro.modem import AudioQrModem, FskModem, GmskModem
from tests.reference.modems import (
    audioqr_receive_ref,
    bits_to_bytes_safe,
    fsk_receive_ref,
    fsk_symbols_ref,
    gmsk_decode_bits_ref,
    gmsk_receive_ref,
)


def build_capture(modem, payloads, gap, noise, seed):
    rng = np.random.default_rng(seed)
    parts = [np.zeros(1200)]
    for p in payloads:
        parts.append(modem.transmit(p))
        parts.append(np.zeros(gap))
    cap = np.concatenate(parts)
    return cap + noise * rng.standard_normal(cap.size)


def random_payloads(seed, sizes):
    rng = np.random.default_rng(seed)
    return [bytes(rng.integers(0, 256, n, dtype=np.uint8)) for n in sizes]


MODEMS = {
    "fsk": FskModem,
    "gmsk": GmskModem,
    "audioqr": AudioQrModem,
}

RECEIVE_REFS = {
    "fsk": fsk_receive_ref,
    "gmsk": gmsk_receive_ref,
    "audioqr": audioqr_receive_ref,
}

# (seed, payload sizes, gap, noise) — pinned property cases per modem.
CASES = {
    "fsk": [
        (0, [20, 60, 1], 1500, 0.0),
        (1, [255, 33], 2500, 0.02),
        (2, [5] * 4, 900, 0.05),
    ],
    "gmsk": [
        (3, [40, 200, 7], 1500, 0.0),
        (4, [1024, 64], 2500, 0.02),
        (5, [16] * 4, 900, 0.05),
    ],
    "audioqr": [
        (6, [10, 25], 1500, 0.0),
        (7, [40, 3], 2500, 0.02),
        (8, [8] * 3, 900, 0.05),
    ],
}


@pytest.mark.parametrize("name", list(MODEMS))
class TestBatchEqualsRef:
    def test_receive_matches_ref_and_recovers_payloads(self, name):
        modem, receive_ref = MODEMS[name](), RECEIVE_REFS[name]
        for seed, sizes, gap, noise in CASES[name]:
            payloads = random_payloads(seed, sizes)
            cap = build_capture(modem, payloads, gap, noise, seed + 100)
            ref = receive_ref(modem, cap)
            batch = modem.receive(cap)
            assert batch == ref, f"{name} seed={seed}"
            if noise <= 0.02:  # clean-enough channels must recover all
                assert batch == payloads, f"{name} seed={seed}"

    def test_corrupted_crc_rejected_identically(self, name):
        modem, receive_ref = MODEMS[name](), RECEIVE_REFS[name]
        payloads = random_payloads(11, [24])
        cap = build_capture(modem, payloads, 1500, 0.0, 12)
        # Flatten the middle of the message body: CRC fails, both paths
        # must drop the frame the same way.
        mid = cap.size // 2
        cap[mid : mid + 4000] = 0.0
        assert modem.receive(cap) == receive_ref(modem, cap)

    def test_truncated_capture_matches_ref(self, name):
        """End-of-capture mid-message: eos decode equals the ref path."""
        modem, receive_ref = MODEMS[name](), RECEIVE_REFS[name]
        payloads = random_payloads(13, [30])
        cap = build_capture(modem, payloads, 1500, 0.01, 14)
        for frac in (0.35, 0.6, 0.85):
            cut = cap[: int(cap.size * frac)]
            assert modem.receive(cut) == receive_ref(modem, cut)

    def test_empty_and_silence(self, name):
        modem, receive_ref = MODEMS[name](), RECEIVE_REFS[name]
        assert modem.receive(np.zeros(0)) == []
        assert modem.receive(np.zeros(5000)) == receive_ref(modem, np.zeros(5000))


class TestFskVectorPacking:
    def test_symbols_for_matches_ref(self):
        modem = FskModem()
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 64, 258):
            msg = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            np.testing.assert_array_equal(
                modem._symbols_for(msg), fsk_symbols_ref(modem, msg)
            )

    def test_pack_symbols_inverts_symbols_for(self):
        modem = FskModem()
        rng = np.random.default_rng(32)
        msg = bytes(rng.integers(0, 256, 100, dtype=np.uint8))
        packed = modem._pack_symbols(modem._symbols_for(msg))
        assert packed.tobytes() == msg


class TestAudioQrBitPacking:
    def test_bits_to_bytes_safe_matches_scalar_accumulator(self):
        rng = np.random.default_rng(41)
        for size in range(0, 21):
            for _ in range(8):
                bits = rng.integers(0, 2, size).astype(np.uint8)
                expected = 0
                for bit in bits:  # the seed's MSB-first accumulator
                    expected = (expected << 1) | int(bit)
                assert bits_to_bytes_safe(bits) == expected, bits


class TestGmskKernels:
    def test_decode_bits_batch_matches_ref(self):
        modem = GmskModem()
        sps = modem.config.samples_per_symbol
        rng = np.random.default_rng(51)
        for size in (5, sps * 3, 997, 4096):
            freq = rng.standard_normal(size)
            for delay in (0, 7, modem._delay, modem._delay + 3 * sps // 4):
                np.testing.assert_array_equal(
                    modem._decode_bits_batch(freq, delay, sps),
                    gmsk_decode_bits_ref(modem, freq, delay, sps),
                )

    def test_sync_shifts_match_ref_scan(self):
        modem = GmskModem()
        rng = np.random.default_rng(52)
        hits = 0
        for _ in range(40):
            bits = rng.integers(0, 2, 120).astype(np.uint8)
            # Sometimes plant the sync word at a random shift.
            if rng.random() < 0.6:
                at = int(rng.integers(0, modem._SHIFT_LIMIT + 1))
                bits[at : at + 16] = modem._sync_bits
            expected = [
                shift
                for shift in range(min(bits.size - 16, modem._SHIFT_LIMIT) + 1)
                if np.array_equal(bits[shift : shift + 16], modem._sync_bits)
            ]
            got = modem._sync_shifts(bits).tolist()
            assert got == expected
            hits += bool(expected)
        assert hits > 10  # the planted cases actually exercised matches

    def test_decode_attempt_prefix_stability(self):
        """Once decode_attempt resolves on a prefix, longer bodies agree."""
        modem = GmskModem()
        payloads = random_payloads(53, [48])
        cap = build_capture(modem, payloads, 2000, 0.01, 54)
        (start, _score), *_ = matched_filter_peak(
            cap, modem.sync.template, modem.sync.threshold
        )
        body = cap[start + modem.sync.template.size :]
        status, value = modem.decode_attempt(body[: modem._hdr_need], eos=False)
        assert status == "need"
        need = value
        status, resolved = modem.decode_attempt(body[:need], eos=False)
        assert status == "done" and resolved == payloads[0]
        for extra in (1, 333, body.size - need):
            status, again = modem.decode_attempt(body[: need + extra], eos=False)
            assert (status, again) == ("done", resolved)
