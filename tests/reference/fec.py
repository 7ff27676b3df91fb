"""Scalar references for the FEC layer.

``rs_encode_ref`` / ``rs_decode_ref`` are the seed's byte-at-a-time
Reed-Solomon codec: the LFSR division for parity, then syndromes,
Forney syndromes for erasures, Berlekamp-Massey, a Chien-style root
search and the Forney algorithm, all on coefficient lists (highest
degree first).  ``viterbi_decode_ref`` is the seed's soft-decision
Viterbi decoder, one add-compare-select pass per bit time, and
``conv_encode_ref`` the convolutional encoder as one ``np.convolve``
per generator polynomial.

Each takes the product object whose batch kernel it pins and reads
only its parameters (``nsym``; ``constraint``, ``polys`` and the
trellis tables), so the property tests compare
:meth:`~repro.fec.reed_solomon.ReedSolomon.encode_blocks`,
:meth:`~repro.fec.reed_solomon.ReedSolomon.decode_blocks`,
:meth:`~repro.fec.convolutional.ConvolutionalCode.encode_batch` and
:meth:`~repro.fec.convolutional.ConvolutionalCode.decode_soft_batch`
with a second implementation over fresh random inputs.
"""

from __future__ import annotations

import numpy as np

from repro.fec.convolutional import ConvolutionalCode
from repro.fec.galois import GF
from repro.fec.reed_solomon import (
    DecodeReport,
    ReedSolomon,
    RSDecodeError,
    _poly_mul,
)

# -- Reed-Solomon --------------------------------------------------------------


def _poly_scale(p: list[int], x: int) -> list[int]:
    return [GF.mul(c, x) for c in p]


def _poly_add(p: list[int], q: list[int]) -> list[int]:
    size = max(len(p), len(q))
    out = [0] * size
    for i, c in enumerate(p):
        out[i + size - len(p)] = c
    for i, c in enumerate(q):
        out[i + size - len(q)] ^= c
    return out


def _poly_eval(p: list[int], x: int) -> int:
    acc = p[0]
    for coeff in p[1:]:
        acc = GF.mul(acc, x) ^ coeff
    return acc


def rs_encode_ref(rs: ReedSolomon, data: bytes) -> bytes:
    """Append ``rs.nsym`` parity bytes, one message byte at a time."""
    if len(data) == 0:
        raise ValueError("cannot encode an empty message")
    if len(data) > rs.max_data_len:
        raise ValueError(
            f"message of {len(data)} bytes exceeds block capacity "
            f"{rs.max_data_len}"
        )
    gen = [1]
    for i in range(rs.nsym):
        gen = _poly_mul(gen, [1, GF.exp(i)])
    msg = list(data) + [0] * rs.nsym
    for i in range(len(data)):
        coeff = msg[i]
        if coeff:
            for j in range(1, len(gen)):
                msg[i + j] ^= GF.mul(gen[j], coeff)
    return bytes(data) + bytes(msg[len(data) :])


def rs_decode_ref(
    rs: ReedSolomon, block: bytes, erase_pos: list[int] | None = None
) -> DecodeReport:
    """Decode one block; raises :class:`RSDecodeError` beyond capacity."""
    nsym = rs.nsym
    if len(block) <= nsym:
        raise ValueError(
            f"block of {len(block)} bytes is too short for {nsym} parity"
        )
    if len(block) > 255:
        raise ValueError(f"block of {len(block)} bytes exceeds RS symbol span")
    erase_pos = sorted(set(erase_pos or []))
    if any(not 0 <= p < len(block) for p in erase_pos):
        raise ValueError("erasure position out of range")
    if len(erase_pos) > nsym:
        raise RSDecodeError(
            f"{len(erase_pos)} erasures exceed correction capacity {nsym}"
        )

    msg = list(block)
    for pos in erase_pos:
        msg[pos] = 0
    synd = _syndromes(msg, nsym)
    if max(synd) == 0:
        return DecodeReport(bytes(msg[:-nsym]), len(erase_pos))

    fsynd = _forney_syndromes(synd, erase_pos, len(msg))
    err_loc = _berlekamp_massey(fsynd, len(erase_pos), nsym)
    err_pos = _find_errors(err_loc[::-1], len(msg))
    msg = _correct_errata(msg, synd, erase_pos + err_pos)
    if max(_syndromes(msg, nsym)) > 0:
        raise RSDecodeError("residual syndromes after correction")
    return DecodeReport(bytes(msg[:-nsym]), len(erase_pos) + len(err_pos))


def _syndromes(msg: list[int], nsym: int) -> list[int]:
    return [_poly_eval(msg, GF.exp(i)) for i in range(nsym)]


def _forney_syndromes(
    synd: list[int], erase_pos: list[int], nmess: int
) -> list[int]:
    """Fold known erasure locations out of the syndromes so BM only has
    to find the unknown error positions."""
    fsynd = list(synd)
    for pos in erase_pos:
        x = GF.exp(nmess - 1 - pos)
        for j in range(len(fsynd) - 1):
            fsynd[j] = GF.mul(fsynd[j], x) ^ fsynd[j + 1]
    return fsynd


def _berlekamp_massey(synd: list[int], erase_count: int, nsym: int) -> list[int]:
    """Find the error locator polynomial (highest degree first)."""
    err_loc = [1]
    old_loc = [1]
    for i in range(nsym - erase_count):
        delta = synd[i]
        for j in range(1, len(err_loc)):
            delta ^= GF.mul(err_loc[-(j + 1)], synd[i - j])
        old_loc = old_loc + [0]
        if delta != 0:
            if len(old_loc) > len(err_loc):
                new_loc = _poly_scale(old_loc, delta)
                old_loc = _poly_scale(err_loc, GF.inv(delta))
                err_loc = new_loc
            err_loc = _poly_add(err_loc, _poly_scale(old_loc, delta))
    while len(err_loc) > 1 and err_loc[0] == 0:
        err_loc = err_loc[1:]
    errs = len(err_loc) - 1
    if errs * 2 + erase_count > nsym:
        raise RSDecodeError(
            f"{errs} errors + {erase_count} erasures exceed capacity {nsym}"
        )
    return err_loc


def _find_errors(err_loc_rev: list[int], nmess: int) -> list[int]:
    """Chien-style exhaustive root search over the message span.

    ``err_loc_rev`` is the locator with *reversed* coefficients, so its
    roots sit at alpha^(coef_pos) — exponents within the message span —
    rather than at the inverses.
    """
    errs = len(err_loc_rev) - 1
    err_pos = []
    for i in range(nmess):
        if _poly_eval(err_loc_rev, GF.exp(i)) == 0:
            err_pos.append(nmess - 1 - i)
    if len(err_pos) != errs:
        raise RSDecodeError(
            "could not locate all errors (beyond correction capacity)"
        )
    return err_pos


def _correct_errata(
    msg: list[int], synd: list[int], err_pos: list[int]
) -> list[int]:
    """Forney algorithm: compute and subtract errata magnitudes."""
    coef_pos = [len(msg) - 1 - p for p in err_pos]
    err_loc = _errata_locator(coef_pos)
    # Error evaluator omega(x) = x*S(x)*Lambda(x) mod x^(e+1).  The extra
    # x factor (a zero-padded syndrome list) is what makes the product
    # form of the locator derivative below come out right.
    padded_synd = [0] + synd
    rem = _poly_mul(padded_synd[::-1], err_loc)
    err_eval = rem[len(rem) - len(err_loc) :]

    x_points = [GF.exp(-(255 - c)) for c in coef_pos]
    out = list(msg)
    for i, xi in enumerate(x_points):
        xi_inv = GF.inv(xi)
        loc_prime = 1
        for j, xj in enumerate(x_points):
            if j != i:
                loc_prime = GF.mul(loc_prime, 1 ^ GF.mul(xi_inv, xj))
        if loc_prime == 0:
            raise RSDecodeError("Forney denominator vanished")
        y = GF.mul(xi, _poly_eval(err_eval, xi_inv))
        out[err_pos[i]] ^= GF.div(y, loc_prime)
    return out


def _errata_locator(coef_pos: list[int]) -> list[int]:
    loc = [1]
    for pos in coef_pos:
        loc = _poly_mul(loc, _poly_add([1], [GF.exp(pos), 0]))
    return loc


# -- convolutional code --------------------------------------------------------


def conv_encode_ref(code: ConvolutionalCode, bits: np.ndarray) -> np.ndarray:
    """Encode one bit vector, appending K-1 flush bits: one binary
    convolution per generator polynomial, outputs interleaved per bit."""
    bits = np.asarray(bits, dtype=np.uint8)
    k = code.constraint
    flushed = np.concatenate([bits, np.zeros(k - 1, dtype=np.uint8)])
    outputs = []
    for poly in code.polys:
        taps = np.array(
            [(poly >> (k - 1 - i)) & 1 for i in range(k)], dtype=np.uint8
        )
        conv = np.convolve(flushed, taps) % 2
        outputs.append(conv[: flushed.size])
    return np.stack(outputs, axis=1).reshape(-1).astype(np.uint8)


def viterbi_decode_ref(
    code: ConvolutionalCode, soft_bits: np.ndarray, n_info_bits: int
) -> np.ndarray:
    """Soft-decision Viterbi decode of one frame.

    One add-compare-select pass per bit time over a ``(n_states,)``
    metric vector, with the branch metric as a correlation against the
    bipolar branch outputs (+1 for bit 0, -1 for bit 1).
    """
    soft = np.asarray(soft_bits, dtype=np.float64)
    total = n_info_bits + code.constraint - 1
    expected = total * code.n_out
    if soft.size != expected:
        raise ValueError(
            f"expected {expected} coded bits for {n_info_bits} info bits, "
            f"got {soft.size}"
        )
    symbols = soft.reshape(total, code.n_out)

    s = code.n_states
    metrics = np.full(s, -np.inf)
    metrics[0] = 0.0  # encoder starts zero-filled
    decisions = np.zeros((total, s), dtype=np.uint8)
    preds = code._preds
    bipolar = 1 - 2 * code._branch_bits.astype(np.float64)  # (s, 2, n_out)

    for t in range(total):
        bm = bipolar @ symbols[t]  # (s, 2)
        cand = metrics[preds] + bm  # (s, 2)
        choice = np.argmax(cand, axis=1).astype(np.uint8)
        metrics = cand[np.arange(s), choice]
        decisions[t] = choice

    # The flush bits force the encoder back to state 0.
    state = 0
    out = np.zeros(total, dtype=np.uint8)
    for t in range(total - 1, -1, -1):
        out[t] = code._input_bit[state]
        state = int(preds[state, decisions[t, state]])
    return out[:n_info_bits]
