"""The profile tournament: every modem family across the channel matrix.

Section 2 of the paper picks SONIC's OFDM profile by comparing it against
the simpler data-over-sound designs (GGwave-style FSK, GMSK, AudioQR) on
the axes that matter for an FM deployment: throughput versus how harsh a
channel each survives.  This module runs that comparison as a measured
tournament instead of quoting numbers: each registered profile transmits
the same probe payloads, and every (profile, channel cell) pair in the
matrix — AWGN SNR x acoustic distance x FM RSSI — is decoded through the
real DSP chain.

Cells are expensive (the FM cells run the whole multiplex/modulate/
demodulate chain), so results are memoised in a :class:`SweepStore`
keyed by :func:`repro.radio.lossmodel.calibration_digest` of the
profile, channel parameters and probe waveform: a warm store answers a
repeat sweep without touching the DSP.  Cell
evaluation fans out over a :class:`~repro.util.parallel.WorkerPool`
with the probe waveforms in shared memory (as in the fleet), and every
cell's randomness is keyed on ``(master_seed, profile, axis, cell
index)`` only — so serial and pooled runs produce bit-identical
results.

The output is the rate-vs-robustness frontier: for each profile, its net
payload rate and the harshest value per channel axis at which measured
loss stays under the threshold.  ``repro tournament`` renders it as JSON
plus an SVG scatter via :mod:`repro.report`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.radio.channels import AcousticChannel, FmRadioLink
from repro.radio.lossmodel import FrameLossModel, calibration_digest, fit_logistic_fer
from repro.util.parallel import WorkerPool, worker_count
from repro.util.rng import derive_rng

__all__ = [
    "TournamentConfig",
    "CellResult",
    "TournamentResult",
    "SweepStore",
    "Contender",
    "run_tournament",
    "write_frontier_report",
]

#: The four modem families the paper compares (Section 2).
DEFAULT_PROFILES = ("sonic-ofdm", "fsk", "gmsk", "audioqr")

AXES = ("awgn", "acoustic", "fm")


@dataclass(frozen=True)
class TournamentConfig:
    """One tournament: who competes, over which channel matrix."""

    profiles: tuple[str, ...] = DEFAULT_PROFILES
    snr_grid_db: tuple[float, ...] = (0.0, 4.0, 8.0, 14.0)
    distance_grid_m: tuple[float, ...] = (0.3, 0.8, 1.3)
    rssi_grid_dbm: tuple[float, ...] = (-70.0, -85.0, -91.0)
    payload_bytes: int = 32  # probe message size for the baseline modems
    n_messages: int = 4  # probe messages (or OFDM frames) per cell
    master_seed: int = 0
    loss_threshold: float = 0.1  # frontier operating point
    store_dir: str | None = None  # persisted SweepStore (None = memo only)

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("tournament needs at least one profile")
        if self.n_messages < 1:
            raise ValueError("need at least one probe message per cell")
        if not 0 < self.payload_bytes <= 255:
            raise ValueError("payload_bytes must be 1..255 (family modem cap)")

    def axis_grid(self, axis: str) -> tuple[float, ...]:
        return {
            "awgn": self.snr_grid_db,
            "acoustic": self.distance_grid_m,
            "fm": self.rssi_grid_dbm,
        }[axis]


@dataclass(frozen=True)
class CellResult:
    """Measured decode outcome of one (profile, channel cell) pair."""

    profile: str
    axis: str  # "awgn" | "acoustic" | "fm"
    value: float  # SNR dB, distance m, or RSSI dBm
    n_frames: int
    n_lost: int
    cached: bool = False

    @property
    def loss_rate(self) -> float:
        return self.n_lost / self.n_frames if self.n_frames else 1.0


class Contender:
    """Uniform transmit/decode adapter over one registered profile.

    Wraps either the OFDM :class:`~repro.modem.modem.Modem` (framed
    bursts) or one of the message modems (FSK/GMSK/AudioQR) behind the
    same probe interface: a deterministic probe waveform, a recovered-
    message counter, and a net payload rate.
    """

    def __init__(self, profile: str, config: TournamentConfig) -> None:
        self.profile = profile
        self.config = config
        rng = derive_rng(config.master_seed, "tournament-payload", profile)
        if profile in ("fsk", "gmsk", "audioqr"):
            from repro.modem import AudioQrModem, FskModem, GmskModem

            self._modem = {
                "fsk": FskModem,
                "gmsk": GmskModem,
                "audioqr": AudioQrModem,
            }[profile]()
            self._ofdm = None
            size = config.payload_bytes
            self.net_bps = size * 8 / self._modem.transmission_seconds(size)
        else:
            from repro.modem.modem import Modem

            self._ofdm = Modem(profile)
            self._modem = None
            size = self._ofdm.frame_payload_size
            self.net_bps = self._ofdm.profile.net_bit_rate()
        self.payloads = [
            rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            for _ in range(config.n_messages)
        ]
        self.n_frames = config.n_messages
        self._waveform: np.ndarray | None = None
        self._waveform_sha: str | None = None

    @property
    def waveform(self) -> np.ndarray:
        """The probe broadcast (built lazily, deterministic)."""
        if self._waveform is None:
            if self._ofdm is not None:
                wave = self._ofdm.transmit_burst(self.payloads)
                self._waveform = np.concatenate([np.zeros(1500), wave])
            else:
                parts = [np.zeros(1500)]
                for p in self.payloads:
                    parts.append(self._modem.transmit(p))
                    parts.append(np.zeros(2400))
                self._waveform = np.concatenate(parts)
        return self._waveform

    def attach_waveform(self, waveform: np.ndarray) -> None:
        """Adopt a pre-built probe waveform (a pool worker's shared copy)."""
        self._waveform = waveform

    @property
    def waveform_sha16(self) -> str:
        """Digest of the probe waveform (hashed once, reused per cell)."""
        if self._waveform_sha is None:
            import hashlib

            self._waveform_sha = hashlib.sha256(
                np.ascontiguousarray(self.waveform, dtype=np.float64).tobytes()
            ).hexdigest()[:16]
        return self._waveform_sha

    def recovered(self, audio: np.ndarray) -> int:
        """How many of the probe payloads decode from ``audio``."""
        if self._ofdm is not None:
            frames = self._ofdm.receive(audio, frames_per_burst=self.n_frames)
            decoded = [f.payload for f in frames if f.ok]
        else:
            decoded = self._modem.receive(audio)
        have = Counter(decoded)
        ok = 0
        for p in self.payloads:
            if have[p] > 0:
                have[p] -= 1
                ok += 1
        return ok


def _cell_digest(config: TournamentConfig, contender: Contender,
                 axis: str, value: float) -> str:
    return calibration_digest(
        contender.profile,
        kind="tournament",
        axis=axis,
        value=value,
        n_messages=config.n_messages,
        payload_bytes=config.payload_bytes,
        master_seed=config.master_seed,
        waveform=contender.waveform_sha16,
    )


class SweepStore:
    """Persisted tournament cells keyed by digest.

    Tiny JSON files under a directory plus an in-process memo; corrupt
    or missing entries just force a re-measure.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._memo: dict[str, tuple[int, int]] = {}

    def _path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / f"sweep-{digest}.json"

    def load(self, digest: str) -> tuple[int, int] | None:
        """Return ``(n_frames, n_lost)`` for ``digest``, or ``None``."""
        counts = self._memo.get(digest)
        if counts is None and self.directory is not None:
            try:
                raw = json.loads(self._path(digest).read_text())
                counts = (int(raw["n_frames"]), int(raw["n_lost"]))
            except (OSError, ValueError, KeyError):
                return None
            self._memo[digest] = counts
        return counts

    def save(self, digest: str, n_frames: int, n_lost: int) -> None:
        self._memo[digest] = (n_frames, n_lost)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = {"n_frames": int(n_frames), "n_lost": int(n_lost)}
            self._path(digest).write_text(json.dumps(payload, indent=2) + "\n")


def _impair(wave: np.ndarray, axis: str, value: float,
            rng: np.random.Generator) -> np.ndarray:
    """Run the probe through one channel cell (all draws from ``rng``)."""
    if axis == "awgn":
        power = float(np.mean(wave**2)) if wave.size else 0.0
        sigma = float(np.sqrt(power / (10.0 ** (value / 10.0))))
        return wave + rng.normal(0.0, sigma, wave.size)
    seed = int(rng.integers(0, 2**31 - 1))
    if axis == "acoustic":
        return AcousticChannel(seed=seed).transmit(wave, value)
    return FmRadioLink(seed=seed).transmit(wave, value)


def _eval_cell(contender: Contender, config: TournamentConfig,
               axis: str, index: int, value: float) -> tuple[int, int]:
    """Measure one cell; randomness depends only on the cell's identity."""
    rng = derive_rng(
        config.master_seed, "tournament-cell", contender.profile, axis, index
    )
    audio = _impair(contender.waveform, axis, value, rng)
    ok = contender.recovered(audio)
    return contender.n_frames, contender.n_frames - ok


class _Contenders(dict):
    """Per-worker contenders, built on first use over the parent's probes."""

    def __init__(self, config: TournamentConfig, **waves: np.ndarray) -> None:
        super().__init__()
        self.config = config
        self.waves = waves

    def __missing__(self, profile: str) -> Contender:
        contender = self[profile] = Contender(profile, self.config)
        contender.attach_waveform(self.waves[profile])
        return contender


def _cell_task(
    contenders: _Contenders, task: tuple[str, str, int, float]
) -> tuple[int, int]:
    profile, axis, index, value = task
    return _eval_cell(contenders[profile], contenders.config, axis, index, value)


@dataclass(frozen=True)
class TournamentResult:
    """Everything :func:`run_tournament` measured (or reloaded)."""

    config: TournamentConfig
    cells: tuple[CellResult, ...]
    net_rates: dict[str, float]
    processes: int
    elapsed_s: float

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    def cells_for(self, profile: str, axis: str) -> list[CellResult]:
        return [c for c in self.cells if c.profile == profile and c.axis == axis]

    def loss_models(self) -> dict[str, FrameLossModel]:
        """Per-profile logistic FER curves fitted to the AWGN sweep."""
        models: dict[str, FrameLossModel] = {}
        for profile in self.config.profiles:
            rows = self.cells_for(profile, "awgn")
            mid, scale = fit_logistic_fer(
                [c.value for c in rows],
                [c.n_frames for c in rows],
                [c.n_lost for c in rows],
            )
            models[profile] = FrameLossModel(
                fer_midpoint_db=mid, fer_scale_db=scale
            )
        return models

    def frontier(self) -> list[dict[str, object]]:
        """Rate-vs-robustness operating points, fastest profile first.

        For each profile: its net payload rate plus the harshest value
        per axis (lowest SNR, longest distance, weakest RSSI) at which
        measured loss stayed within ``config.loss_threshold``; ``None``
        where no cell on the axis qualified.
        """
        threshold = self.config.loss_threshold
        rows: list[dict[str, object]] = []
        for profile in self.config.profiles:
            def harshest(axis: str, pick) -> float | None:
                good = [
                    c.value
                    for c in self.cells_for(profile, axis)
                    if c.loss_rate <= threshold
                ]
                return pick(good) if good else None

            rows.append(
                {
                    "profile": profile,
                    "net_bps": self.net_rates[profile],
                    "min_snr_db": harshest("awgn", min),
                    "max_distance_m": harshest("acoustic", max),
                    "min_rssi_dbm": harshest("fm", min),
                }
            )
        rows.sort(key=lambda r: -float(r["net_bps"]))
        return rows

    def to_json(self) -> str:
        payload = {
            "loss_threshold": self.config.loss_threshold,
            "n_messages": self.config.n_messages,
            "payload_bytes": self.config.payload_bytes,
            "master_seed": self.config.master_seed,
            "frontier": self.frontier(),
            "cells": [
                {
                    "profile": c.profile,
                    "axis": c.axis,
                    "value": c.value,
                    "n_frames": c.n_frames,
                    "n_lost": c.n_lost,
                    "loss_rate": c.loss_rate,
                    "cached": c.cached,
                }
                for c in self.cells
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _enumerate_cells(
    config: TournamentConfig,
) -> list[tuple[str, str, int, float]]:
    tasks = []
    for profile in config.profiles:
        for axis in AXES:
            for index, value in enumerate(config.axis_grid(axis)):
                tasks.append((profile, axis, index, float(value)))
    return tasks


def run_tournament(
    config: TournamentConfig = TournamentConfig(),
    processes: int | None = None,
) -> TournamentResult:
    """Sweep every profile across the channel matrix.

    ``processes=None`` picks ``min(n_cells, cpu_count)``; ``processes<=1``
    runs serially.  Results are bit-identical either way: each cell's
    randomness is a pure function of its identity.  Cells answered by
    the :class:`SweepStore` over ``config.store_dir`` (an in-process
    memo when that is None) skip the DSP entirely.
    """
    t0 = time.perf_counter()
    store = SweepStore(config.store_dir)
    contenders = {name: Contender(name, config) for name in config.profiles}
    tasks = _enumerate_cells(config)

    digests = {
        task: _cell_digest(config, contenders[task[0]], task[1], task[3])
        for task in tasks
    }
    cached: dict[tuple[str, str, int, float], tuple[int, int]] = {}
    misses: list[tuple[str, str, int, float]] = []
    for task in tasks:
        counts = store.load(digests[task])
        if counts is not None:
            cached[task] = counts
        else:
            misses.append(task)

    processes = worker_count(processes, len(misses))
    measured: dict[tuple[str, str, int, float], tuple[int, int]] = {}
    if misses:
        waves = {task[0]: contenders[task[0]].waveform for task in misses}
        with WorkerPool(processes, _Contenders, config, arrays=waves) as pool:
            measured = dict(zip(misses, pool.map(_cell_task, misses)))
    for task, counts in measured.items():
        store.save(digests[task], *counts)

    cells = []
    for task in tasks:
        profile, axis, _index, value = task
        n_frames, n_lost = cached.get(task) or measured[task]
        cells.append(
            CellResult(
                profile=profile,
                axis=axis,
                value=value,
                n_frames=n_frames,
                n_lost=n_lost,
                cached=task in cached,
            )
        )
    return TournamentResult(
        config=config,
        cells=tuple(cells),
        net_rates={name: c.net_bps for name, c in contenders.items()},
        processes=processes,
        elapsed_s=time.perf_counter() - t0,
    )


def write_frontier_report(
    result: TournamentResult,
    json_path: str | Path,
    svg_path: str | Path | None = None,
) -> None:
    """Persist the frontier as JSON and (optionally) an SVG scatter."""
    json_path = Path(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(result.to_json())
    if svg_path is None:
        return
    from repro.report.plots import scatter_chart

    points = {}
    for row in result.frontier():
        if row["min_snr_db"] is None:
            continue  # never met the loss threshold on the AWGN axis
        points[str(row["profile"])] = (
            float(row["min_snr_db"]),
            float(row["net_bps"]) / 1000.0,
        )
    if not points:
        return
    scatter_chart(
        points,
        svg_path,
        title=(
            "Rate vs robustness "
            f"(loss <= {result.config.loss_threshold:g} per axis)"
        ),
        x_label="lowest workable AWGN SNR (dB)",
        y_label="net payload rate (kbps)",
    )
