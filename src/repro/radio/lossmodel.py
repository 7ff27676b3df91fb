"""Fast frame-loss model fitted to the full DSP chain.

Running every broadcast through the OFDM modem + FM chain is the ground
truth, but system-level simulations (hours of air time, many clients)
need a cheaper equivalent.  This model reduces the chain to:

1. the audio-SNR a receiver sees (from RSSI via the FM threshold curve,
   or from air distance via the acoustic model), and
2. a logistic frame-error curve fitted to measured decode outcomes of
   the ``sonic-ofdm`` profile under AWGN (see tests/test_lossmodel.py
   for the fit's validation against the real chain).

The default curve constants are calibration constants of this
reproduction, documented in DESIGN.md.  :meth:`FrameLossModel.
fit_from_runs` re-derives them from *measured* fleet outcomes (the
two-tier population simulator's Tier 1), and :func:`calibration_digest`
names a profile+channel pair (the tournament keys its memoised sweep
cells on it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.radio.channels import AcousticChannel, AcousticConfig
from repro.util.rng import derive_rng

__all__ = [
    "FrameLossModel",
    "fit_logistic_fer",
    "calibration_digest",
]

#: Logistic frame-error fit for the sonic-ofdm profile (AWGN).
_FER_MIDPOINT_DB = 3.3
_FER_SCALE_DB = 0.45

#: FM threshold curve: audio SNR as a function of RSSI (dB).
_FM_LINEAR_OFFSET_DB = 100.0
_FM_THRESHOLD_RSSI = -85.0
_FM_COLLAPSE_SLOPE = 3.0


def fit_logistic_fer(
    snr_db: Sequence[float] | np.ndarray,
    n_frames: Sequence[int] | np.ndarray,
    n_lost: Sequence[int] | np.ndarray,
) -> tuple[float, float]:
    """Maximum-likelihood logistic FER fit to measured decode outcomes.

    Each sample is one receiver (or sweep point): ``n_lost[i]`` of
    ``n_frames[i]`` frames failed at audio SNR ``snr_db[i]``.  Returns
    ``(midpoint_db, scale_db)`` for ``p = 1 / (1 + exp((snr - mid) /
    scale))`` — monotone decreasing in SNR by construction (the scale is
    constrained positive).

    The likelihood surface of a two-parameter logistic is smooth, so a
    deterministic coarse-to-fine grid search is both dependency-free and
    reproducible bit-for-bit across platforms.
    """
    snr = np.asarray(snr_db, dtype=np.float64)
    total = np.asarray(n_frames, dtype=np.float64)
    lost = np.asarray(n_lost, dtype=np.float64)
    if snr.size == 0:
        raise ValueError("cannot fit a loss curve to zero samples")
    if np.any(lost > total) or np.any(total <= 0):
        raise ValueError("need 0 <= n_lost <= n_frames with n_frames > 0")

    lo = float(snr.min()) - 6.0
    hi = float(snr.max()) + 6.0

    def nll(mid: np.ndarray, scale: np.ndarray) -> np.ndarray:
        # mid/scale broadcast against the sample axis appended last.
        z = (snr - mid[..., None]) / scale[..., None]
        z = np.clip(z, -40.0, 40.0)
        p = 1.0 / (1.0 + np.exp(z))
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        return -np.sum(lost * np.log(p) + (total - lost) * np.log1p(-p), axis=-1)

    mid_grid = np.linspace(lo, hi, 61)
    scale_grid = np.geomspace(0.05, 10.0, 41)
    for _ in range(4):
        m, s = np.meshgrid(mid_grid, scale_grid, indexing="ij")
        surface = nll(m.ravel(), s.ravel()).reshape(m.shape)
        i, j = np.unravel_index(int(np.argmin(surface)), surface.shape)
        best_mid, best_scale = float(mid_grid[i]), float(scale_grid[j])
        mid_span = (mid_grid[-1] - mid_grid[0]) / 10.0
        mid_grid = np.linspace(best_mid - mid_span, best_mid + mid_span, 31)
        scale_lo = max(0.01, best_scale / 2.0)
        scale_grid = np.geomspace(scale_lo, best_scale * 2.0, 31)
    return best_mid, best_scale


@dataclass(frozen=True)
class FrameLossModel:
    """Per-frame loss probabilities consistent with the DSP chain.

    ``fer_midpoint_db``/``fer_scale_db`` default to the repository's
    calibration constants; :meth:`fit_from_runs` returns an instance
    carrying constants fitted to actual full-modem outcomes instead.
    """

    acoustic: AcousticConfig = AcousticConfig()
    seed: int = 0
    fer_midpoint_db: float = _FER_MIDPOINT_DB
    fer_scale_db: float = _FER_SCALE_DB

    @classmethod
    def fit_from_runs(
        cls,
        samples: Iterable[tuple[float, int, int]],
        *,
        acoustic: AcousticConfig | None = None,
        seed: int = 0,
    ) -> "FrameLossModel":
        """Calibrate the FER curve from measured ``(snr_db, n_frames,
        n_lost)`` decode outcomes (e.g. a Tier-1 full-modem fleet)."""
        rows = list(samples)
        mid, scale = fit_logistic_fer(
            [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]
        )
        return cls(
            acoustic=acoustic if acoustic is not None else AcousticConfig(),
            seed=seed,
            fer_midpoint_db=mid,
            fer_scale_db=scale,
        )

    def frame_error_probability(self, snr_db):
        """FER at a given audio SNR; accepts scalars or numpy arrays."""
        snr = np.asarray(snr_db, dtype=np.float64)
        z = (snr - self.fer_midpoint_db) / self.fer_scale_db
        # Clamp to avoid overflow in exp for extreme SNRs.
        z = np.clip(z, -40.0, 40.0)
        p = 1.0 / (1.0 + np.exp(z))
        return float(p) if np.ndim(snr_db) == 0 else p

    def audio_snr_from_rssi(self, rssi_db):
        """FM receiver output SNR vs RSSI, with the threshold collapse.

        Above threshold the discriminator is linear (audio SNR tracks
        RSSI); below it, impulsive clicks collapse the output roughly
        three times faster — which is why the paper sees nothing at all
        below −90 dB.  Accepts scalars or numpy arrays.
        """
        rssi = np.asarray(rssi_db, dtype=np.float64)
        linear = rssi + _FM_LINEAR_OFFSET_DB
        margin = _FM_THRESHOLD_RSSI - rssi
        collapsed = (
            _FM_THRESHOLD_RSSI + _FM_LINEAR_OFFSET_DB
        ) - _FM_COLLAPSE_SLOPE * margin
        out = np.where(rssi >= _FM_THRESHOLD_RSSI, linear, collapsed)
        return float(out) if np.ndim(rssi_db) == 0 else out

    # -- transmission-level draws ------------------------------------------------

    def frame_losses_at_distance(
        self, n_frames: int, distance_m: float, call: int = 0
    ) -> np.ndarray:
        """Boolean loss vector for ``n_frames`` sent over an air gap.

        Mirrors :class:`repro.radio.channels.AcousticChannel`: one
        misalignment draw per transmission, flutter per ~0.25 s knot
        (about one frame), independent Bernoulli per frame.
        """
        rng = derive_rng(self.seed, "lossmodel-air", call)
        channel = AcousticChannel(self.acoustic)
        if distance_m <= 0:
            snr = self.acoustic.cable_snr_db
            p = self.frame_error_probability(snr)
            return rng.random(n_frames) < p
        base = channel.effective_snr_db(distance_m, rng)
        sigma = (
            self.acoustic.flutter_sigma_base_db
            + self.acoustic.flutter_sigma_db_per_m * distance_m
        )
        flutter = rng.normal(0.0, sigma, n_frames)
        probs = self.frame_error_probability(base + flutter)
        return rng.random(n_frames) < probs

    def frame_losses_at_rssi(
        self, n_frames: int, rssi_db: float, call: int = 0
    ) -> np.ndarray:
        """Boolean loss vector for frames received at a given RSSI."""
        rng = derive_rng(self.seed, "lossmodel-rssi", call)
        snr = self.audio_snr_from_rssi(rssi_db)
        # Small per-frame wobble: multipath and interleaving residue.
        wobble = rng.normal(0.0, 0.8, n_frames)
        probs = self.frame_error_probability(snr + wobble)
        return rng.random(n_frames) < probs


def calibration_digest(profile: str, **channel: object) -> str:
    """Stable digest of a (profile, channel conditions) pair.

    The tournament keys its memoised sweep cells on this, so any change
    to the profile, channel point, probe waveform, message count or
    seed forces a re-measure while identical reruns hit the store.
    """
    payload = json.dumps(
        {"profile": profile, **{k: repr(v) for k, v in sorted(channel.items())}},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
