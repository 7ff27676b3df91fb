"""Systematic Reed-Solomon codec over GF(256).

This is the outer code of the SONIC frame pipeline (Quiet's ``rs8``): each
protected block carries ``nsym`` parity bytes and can correct up to
``nsym // 2`` unknown byte errors, or more when erasure positions are
known (2*errors + erasures <= nsym).

Decoding follows the classic chain — syndromes, Forney syndromes to fold
in erasures, Berlekamp-Massey for the error locator, a Chien-style root
search for positions, and the Forney algorithm for magnitudes.  The
polynomial conventions follow the standard "Reed-Solomon codes for
coders" formulation.

:meth:`ReedSolomon.encode_blocks` / :meth:`ReedSolomon.decode_blocks` run
the LFSR parity recursion, the syndrome computation, the errata chain and
the Chien search as numpy table gathers over a whole
``(n_blocks, block_len)`` stack at once, which is what the batch frame
pipeline and the broadcast carousel feed.  ``encode``/``decode`` are
one-row calls into them.  The property tests pin both to the seed's
byte-at-a-time codec, ``tests/reference/fec.py::rs_encode_ref`` and
``rs_decode_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fec.galois import GF

__all__ = ["ReedSolomon", "RSDecodeError", "BlockDecodeReport"]


class RSDecodeError(Exception):
    """Raised when a block has more errata than the code can correct."""


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of a successful decode."""

    data: bytes
    corrected: int


@dataclass(frozen=True)
class BlockDecodeReport:
    """Outcome of :meth:`ReedSolomon.decode_blocks` over a block stack."""

    data: np.ndarray  # (n_blocks, block_len - nsym) uint8, rows valid iff ok
    corrected: np.ndarray  # (n_blocks,) errata fixed per block
    ok: np.ndarray  # (n_blocks,) bool
    errors: tuple[str | None, ...]  # failure reason per block (None = ok)

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for j, qc in enumerate(q):
        if qc == 0:
            continue
        for i, pc in enumerate(p):
            if pc:
                out[i + j] ^= GF.mul(pc, qc)
    return out


class ReedSolomon:
    """RS(n, n - nsym) codec with byte symbols and shortened blocks.

    Parameters
    ----------
    nsym:
        Number of parity symbols appended per block.  The default of 32
        matches the classic RS(255, 223) configuration and the strength
        class of Quiet's ``rs8`` scheme.
    """

    def __init__(self, nsym: int = 32) -> None:
        if not 2 <= nsym <= 254:
            raise ValueError(f"nsym must be in [2, 254], got {nsym}")
        self.nsym = nsym
        gen = [1]
        for i in range(nsym):
            gen = _poly_mul(gen, [1, GF.exp(i)])
        # LFSR tap table: row j holds gen[j+1] * b for every byte b, so the
        # vectorised parity recursion is a single gather per data column.
        self._gen_taps = GF.mul_table[np.asarray(gen[1:], dtype=np.intp)]
        # Syndrome evaluation points alpha^0 .. alpha^(nsym-1).
        self._synd_points = GF.exp_vec(np.arange(nsym)).astype(np.intp)

    @property
    def max_data_len(self) -> int:
        """Largest message (in bytes) a single block can carry."""
        return 255 - self.nsym

    # -- encoding ------------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        """Append ``nsym`` parity bytes to ``data`` (systematic encoding)."""
        block = np.frombuffer(bytes(data), dtype=np.uint8)
        return self.encode_blocks(block[None, :])[0].tobytes()

    def encode_blocks(self, data: np.ndarray) -> np.ndarray:
        """Systematically encode a whole ``(n_blocks, k)`` stack at once.

        Every row receives its ``nsym`` parity bytes; the return shape is
        ``(n_blocks, k + nsym)``.  The LFSR parity recursion runs column
        by column (``k`` steps) but over all blocks simultaneously, so the
        per-byte work is numpy table gathers rather than Python loops.
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.uint8))
        if data.ndim != 2:
            raise ValueError(f"expected a (n_blocks, k) array, got {data.shape}")
        n, k = data.shape
        if k == 0:
            raise ValueError("cannot encode an empty message")
        if k > self.max_data_len:
            raise ValueError(
                f"message of {k} bytes exceeds block capacity {self.max_data_len}"
            )
        taps = self._gen_taps  # (nsym, 256)
        parity = np.zeros((n, self.nsym), dtype=np.uint8)
        for i in range(k):
            feedback = data[:, i] ^ parity[:, 0]
            shifted = np.empty_like(parity)
            shifted[:, :-1] = parity[:, 1:]
            shifted[:, -1] = 0
            parity = shifted ^ taps[:, feedback].T
        return np.concatenate([data, parity], axis=1)

    # -- decoding ------------------------------------------------------------

    def decode(self, block: bytes, erase_pos: list[int] | None = None) -> bytes:
        """Decode one block, returning the corrected message bytes.

        ``erase_pos`` lists byte indices (into ``block``) known to be
        corrupt — e.g. positions the demodulator flagged as unreliable.
        Raises :class:`RSDecodeError` when the errata exceed capacity.
        """
        return self.decode_detailed(block, erase_pos).data

    def decode_detailed(
        self, block: bytes, erase_pos: list[int] | None = None
    ) -> DecodeReport:
        """Like :meth:`decode` but also reports how many bytes were fixed."""
        arr = np.frombuffer(bytes(block), dtype=np.uint8)
        report = self.decode_blocks(
            arr[None, :], [erase_pos] if erase_pos is not None else None
        )
        if not report.ok[0]:
            raise RSDecodeError(report.errors[0])
        return DecodeReport(report.data[0].tobytes(), int(report.corrected[0]))

    def decode_blocks(
        self,
        blocks: np.ndarray,
        erase_pos: list[list[int] | None] | None = None,
    ) -> BlockDecodeReport:
        """Decode a ``(n_blocks, block_len)`` stack in one call.

        Syndromes are computed for all blocks at once; only blocks with
        non-zero syndromes enter the (data-dependent) errata chain, so a
        clean broadcast costs one vectorised pass.  Per-block failures are
        reported in the ``ok``/``errors`` fields rather than raised, which
        lets the frame pipeline keep the surviving frames.

        ``erase_pos`` optionally gives one erasure-index list per block.
        """
        blocks = np.atleast_2d(np.asarray(blocks, dtype=np.uint8))
        if blocks.ndim != 2:
            raise ValueError(f"expected a (n_blocks, L) array, got {blocks.shape}")
        n, length = blocks.shape
        if length <= self.nsym:
            raise ValueError(
                f"block of {length} bytes is too short for {self.nsym} parity"
            )
        if length > 255:
            raise ValueError(f"block of {length} bytes exceeds RS symbol span")
        if erase_pos is None:
            erasures: list[list[int]] = [[] for _ in range(n)]
        else:
            if len(erase_pos) != n:
                raise ValueError(
                    f"got {len(erase_pos)} erasure lists for {n} blocks"
                )
            erasures = [sorted(set(ep or [])) for ep in erase_pos]
            for ep in erasures:
                if any(not 0 <= p < length for p in ep):
                    raise ValueError("erasure position out of range")

        work = blocks.copy()
        for i, ep in enumerate(erasures):
            if ep:
                work[i, ep] = 0

        synd = self._syndromes_blocks(work)
        ok = np.ones(n, dtype=bool)
        corrected = np.array([len(ep) for ep in erasures], dtype=np.int64)
        errors: list[str | None] = [None] * n

        for i in range(n):
            if len(erasures[i]) > self.nsym:
                ok[i] = False
                errors[i] = (
                    f"{len(erasures[i])} erasures exceed correction "
                    f"capacity {self.nsym}"
                )
        needs_chain = np.nonzero(synd.any(axis=1) & ok)[0]
        if needs_chain.size:
            self._decode_errata_blocks(
                work, synd, erasures, needs_chain, corrected, ok, errors
            )
        return BlockDecodeReport(
            work[:, : length - self.nsym], corrected, ok, tuple(errors)
        )

    def check(self, block: bytes) -> bool:
        """Return True when the block's syndromes all vanish (no errata)."""
        if len(block) <= self.nsym or len(block) > 255:
            return False
        arr = np.frombuffer(bytes(block), dtype=np.uint8)
        return not self._syndromes_blocks(arr[None, :]).any()

    # -- vectorised decoding internals ---------------------------------------

    def _syndromes_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Syndromes of every block at once: ``(n, nsym)`` uint8.

        Horner over the columns — one product-table gather and one XOR per
        data byte position, for all blocks and all syndrome points.
        """
        table = GF.mul_table
        xs = self._synd_points
        acc = np.zeros((blocks.shape[0], self.nsym), dtype=np.uint8)
        for c in range(blocks.shape[1]):
            acc = table[acc, xs] ^ blocks[:, c, None]
        return acc

    def _decode_errata_blocks(
        self,
        work: np.ndarray,
        synd: np.ndarray,
        erasures: list[list[int]],
        rows: np.ndarray,
        corrected: np.ndarray,
        ok: np.ndarray,
        errors: list[str | None],
    ) -> None:
        """Run the errata chain over every flagged block at once.

        Mirrors the scalar chain of ``tests/reference/fec.py::rs_decode_ref``
        stage by stage — Forney-syndrome fold, Berlekamp-Massey, Chien
        search, Forney magnitudes, residual check — but each stage is
        numpy table gathers over the whole batch.  Polynomials live in
        fixed-width lowest-degree-first arrays with an explicit *formal
        length* per block (the scalar path's list length, leading zeros
        included), which is what the BM swap condition compares.  Blocks
        that fail a stage drop out of the batch with the same error
        strings the scalar path raises; the rest are corrected in
        ``work`` in place.
        """
        table = GF.mul_table
        nsym = self.nsym
        nmess = work.shape[1]

        idx = np.asarray(rows, dtype=np.int64)
        ecnt = np.array([len(erasures[i]) for i in idx], dtype=np.int64)
        w_era = max(int(ecnt.max()), 1)
        era = np.zeros((idx.size, w_era), dtype=np.int64)
        for r, i in enumerate(idx):
            era[r, : len(erasures[i])] = erasures[i]

        # -- Forney syndromes: fold erasures out, one pass per slot ------
        srows = synd[idx].astype(np.intp)
        fsynd = srows.copy()
        for k in range(int(ecnt.max())):
            live = (k < ecnt)[:, None]
            x = GF.exp_vec(nmess - 1 - era[:, k]).astype(np.intp)
            folded = table[fsynd[:, :-1], x[:, None]] ^ fsynd[:, 1:]
            fsynd[:, :-1] = np.where(live, folded, fsynd[:, :-1])

        # -- Berlekamp-Massey with per-block iteration counts ------------
        width = nsym + 2  # formal lengths never exceed nsym + 1
        loc = np.zeros((idx.size, width), dtype=np.intp)
        old = np.zeros((idx.size, width), dtype=np.intp)
        loc[:, 0] = 1
        old[:, 0] = 1
        err_len = np.ones(idx.size, dtype=np.int64)
        old_len = np.ones(idx.size, dtype=np.int64)
        iters = nsym - ecnt
        delta = np.zeros(idx.size, dtype=np.intp)
        for i in range(int(iters.max())):
            active = i < iters
            delta[:] = 0
            for j in range(min(i + 1, width)):
                delta ^= table[loc[:, j], fsynd[:, i - j]]
            shifted = np.zeros_like(old)  # old <- old + [0]
            shifted[:, 1:] = old[:, :-1]
            old = np.where(active[:, None], shifted, old)
            old_len = old_len + active
            upd = active & (delta != 0)
            swap = upd & (old_len > err_len)
            sw = swap[:, None]
            inv_d = GF.inv_vec(np.where(delta == 0, 1, delta)).astype(np.intp)
            loc, old = (
                np.where(sw, table[old, delta[:, None]], loc),
                np.where(sw, table[loc, inv_d[:, None]], old),
            )
            err_len, old_len = (
                np.where(swap, old_len, err_len),
                np.where(swap, err_len, old_len),
            )
            d_old = table[old, delta[:, None]]
            loc = np.where(upd[:, None], loc ^ d_old, loc)
            err_len = np.where(upd, np.maximum(err_len, old_len), err_len)

        # Formal degree = highest nonzero coefficient (loc[:, 0] is 1).
        support = (loc != 0) & (np.arange(width)[None, :] < err_len[:, None])
        errs = (width - 1) - np.argmax(support[:, ::-1], axis=1)

        bad = errs * 2 + ecnt > nsym
        for r in np.nonzero(bad)[0]:
            ok[idx[r]] = False
            errors[idx[r]] = (
                f"{errs[r]} errors + {ecnt[r]} erasures exceed capacity {nsym}"
            )
        alive = ~bad
        if not alive.any():
            return
        idx, ecnt, era, errs = idx[alive], ecnt[alive], era[alive], errs[alive]
        loc, srows = loc[alive], srows[alive]

        # -- Chien search: evaluate the locator at alpha^0..alpha^(L-1) --
        # loc is the reversed locator plus a power-of-x factor from the
        # fixed width, which shifts no roots.
        points = GF.exp_vec(np.arange(nmess)).astype(np.intp)
        acc = np.zeros((idx.size, nmess), dtype=np.intp)
        for j in range(width):
            acc = table[acc, points[None, :]] ^ loc[:, j : j + 1]
        is_root = acc == 0
        bad = is_root.sum(axis=1) != errs
        for r in np.nonzero(bad)[0]:
            ok[idx[r]] = False
            errors[idx[r]] = (
                "could not locate all errors (beyond correction capacity)"
            )
        alive = ~bad
        if not alive.any():
            return
        idx, ecnt, era, errs = idx[alive], ecnt[alive], era[alive], errs[alive]
        srows, is_root = srows[alive], is_root[alive]

        # -- Forney magnitudes over the padded errata-position matrix ----
        e_tot = ecnt + errs
        e_max = max(int(e_tot.max()), 1)
        slots = np.arange(e_max)[None, :]
        epos = np.zeros((idx.size, e_max), dtype=np.int64)
        w = min(era.shape[1], e_max)  # dropped rows may have shrunk e_max
        emask = slots[:, :w] < ecnt[:, None]
        epos[:, :w][emask] = era[:, :w][emask]
        rr, cc = np.nonzero(is_root)
        epos[rr, ecnt[rr] + (np.arange(rr.size) - np.searchsorted(rr, rr))] = (
            nmess - 1 - cc
        )

        valid = slots < e_tot[:, None]
        coef = nmess - 1 - epos
        xs = np.where(valid, GF.exp_vec(coef), 0).astype(np.intp)
        xs_inv = np.where(valid, GF.exp_vec(-coef), 0).astype(np.intp)

        # Errata locator lambda(x) = prod (1 + X_k x), lowest degree first.
        lam = np.zeros((idx.size, e_max + 1), dtype=np.intp)
        lam[:, 0] = 1
        for k in range(e_max):
            live = (k < e_tot)[:, None]
            nxt = lam.copy()
            nxt[:, 1:] ^= table[lam[:, :-1], xs[:, k][:, None]]
            lam = np.where(live, nxt, lam)

        # omega = x*S(x)*lambda(x) mod x^(e+1), truncated per block.
        omega = np.zeros((idx.size, e_max + 1), dtype=np.intp)
        for j in range(1, e_max + 1):
            for b in range(j):
                omega[:, j] ^= table[lam[:, b], srows[:, j - 1 - b]]
        omega = np.where(np.arange(e_max + 1)[None, :] <= e_tot[:, None], omega, 0)

        # Denominator prod_{j != i} (1 + Xinv_i X_j); pads contribute 1.
        terms = table[xs_inv[:, :, None], xs[:, None, :]].astype(np.intp) ^ 1
        force_one = np.eye(e_max, dtype=bool)[None, :, :] | ~valid[:, None, :]
        terms = np.where(force_one, 1, terms)
        lp = np.ones((idx.size, e_max), dtype=np.intp)
        for j in range(e_max):
            lp = table[lp, terms[:, :, j]]
        bad = ((lp == 0) & valid).any(axis=1)
        for r in np.nonzero(bad)[0]:
            ok[idx[r]] = False
            errors[idx[r]] = "Forney denominator vanished"
        alive = ~bad
        if not alive.any():
            return
        idx, e_tot, epos = idx[alive], e_tot[alive], epos[alive]
        xs, xs_inv, omega, lp = xs[alive], xs_inv[alive], omega[alive], lp[alive]
        valid = valid[alive]

        # y_i = X_i * omega(Xinv_i); magnitude = y_i / lp_i.
        ev = np.zeros_like(lp)
        for j in range(e_max, -1, -1):
            ev = table[ev, xs_inv] ^ omega[:, j : j + 1]
        y = table[xs, ev]
        mag = table[y.astype(np.intp), GF.inv_vec(lp).astype(np.intp)]

        cand = work[idx].copy()
        for k in range(e_max):
            r = np.nonzero(k < e_tot)[0]
            cand[r, epos[r, k]] ^= mag[r, k]

        bad = self._syndromes_blocks(cand).any(axis=1)
        for r in np.nonzero(bad)[0]:
            ok[idx[r]] = False
            errors[idx[r]] = "residual syndromes after correction"
        good = ~bad
        work[idx[good]] = cand[good]
        corrected[idx[good]] = e_tot[good]
