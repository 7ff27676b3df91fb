"""Tier 2 of the two-tier fleet: a calibrated statistical population.

The full-modem fleet (``repro.sim.receivers.run_fleet``) is the ground
truth but tops out at tens of receivers — every one demodulates real
audio.  This module simulates the *other* million listeners of a
city-scale broadcast statistically:

1. positions are scattered over the transmitter's coverage disc
   (:class:`repro.sim.geometry.PopulationGeometry`),
2. RSSI comes from the log-distance propagation model plus log-normal
   shadowing (:class:`repro.radio.propagation.PropagationModel`),
3. RSSI maps to audio SNR through the FM threshold curve and audio SNR
   to per-frame loss probability through a logistic FER curve
   (:class:`repro.radio.lossmodel.FrameLossModel` — ideally one fitted
   to Tier-1 outcomes via ``FrameLossModel.fit_from_runs``), and
4. frame losses are Bernoulli draws batched as numpy arrays across all
   receivers at once, then aggregated per frame → per page → per
   receiver into population loss and readability distributions.

Every draw is a pure function of ``(master_seed, stream, receiver,
draw index)`` via the counter RNG in ``repro.util.rng``, so serial,
chunked, and multiprocess runs are bit-identical by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.radio.lossmodel import FrameLossModel
from repro.radio.propagation import PropagationModel
from repro.sim.geometry import PopulationGeometry, RegionPartition
from repro.util.parallel import WorkerPool, worker_count
from repro.util.rng import (
    counter_normals,
    counter_uniform_columns,
    counter_uniforms,
    derive_key,
)

__all__ = [
    "PopulationConfig",
    "PopulationResult",
    "run_population",
    "StationCoverage",
    "per_station_coverage",
]

#: Text-readability steepness of the synthetic user study (Figure 5):
#: mean rating = 10 * exp(-k * damage).  The population tier equates
#: pixel damage with the frame-loss fraction — the blocks a lost frame
#: carried are exactly the pixels that go dark.
_K_TEXT = 8.0

#: The FM mast every population listens to (log-distance path loss; the
#: per-receiver shadowing is ``PopulationConfig.shadowing_sigma_db``).
PROPAGATION = PropagationModel()


@dataclass(frozen=True)
class PopulationConfig:
    """One statistical population run: who listens where, for how long."""

    n_receivers: int = 100_000
    hours: float = 48.0
    master_seed: int = 0
    profile: str = "sonic-ofdm"
    # Carousel shape: the Fig. 4(c) catalog is 200 pages; frames per
    # page at the capped page size used throughout the CLI demos.
    pages: int = 200
    frames_per_page: int = 64
    geometry: PopulationGeometry = PopulationGeometry()
    shadowing_sigma_db: float = 4.0
    # Receivers processed per vectorised batch: bounds working memory
    # (a few float64 arrays of this length) without affecting results.
    chunk_receivers: int = 65_536
    # At most this many total frames are drawn per-frame (exact
    # Bernoulli); longer horizons use the normal approximation of the
    # per-receiver binomial loss count, which at >= thousands of frames
    # is indistinguishable and O(1) per receiver.  A config constant —
    # never derived from chunking — so partitioning cannot change which
    # path runs.
    exact_frame_threshold: int = 4_096
    # Seconds of air time per frame; None = derive from the profile.
    frame_duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_receivers < 1:
            raise ValueError("population needs at least one receiver")
        if self.hours <= 0:
            raise ValueError("hours must be positive")
        if self.pages < 1 or self.frames_per_page < 1:
            raise ValueError("carousel needs at least one page and frame")
        if self.chunk_receivers < 1:
            raise ValueError("chunk_receivers must be >= 1")

    def resolved_frame_duration_s(self) -> float:
        if self.frame_duration_s is not None:
            return self.frame_duration_s
        from repro.modem.modem import Modem

        return Modem(self.profile).frame_duration_s

    def frames_total(self) -> int:
        """Frames on air over the whole horizon (one receiver's view)."""
        return max(1, int(self.hours * 3600.0 / self.resolved_frame_duration_s()))


@dataclass(frozen=True)
class PopulationResult:
    """Population-level outcome distributions of one Tier-2 run."""

    config: PopulationConfig
    frames_per_receiver: int
    elapsed_s: float
    distances_m: np.ndarray  # per receiver
    rssi_dbm: np.ndarray  # per receiver, shadowing included
    loss_probs: np.ndarray  # model per-frame loss probability
    loss_rates: np.ndarray  # empirical frame-loss rate (drawn)
    pages_decoded: np.ndarray  # distinct catalog pages decoded
    readability: np.ndarray  # 0-10 text-readability proxy (Fig. 5 curve)

    @property
    def n_receivers(self) -> int:
        return int(self.distances_m.size)

    @property
    def receiver_frames(self) -> int:
        """Total receiver-frames simulated (receivers x frames)."""
        return self.n_receivers * self.frames_per_receiver

    @property
    def receiver_frames_per_s(self) -> float:
        return self.receiver_frames / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def mean_loss_rate(self) -> float:
        return float(self.loss_rates.mean())

    @property
    def pages_fraction(self) -> np.ndarray:
        return self.pages_decoded / self.config.pages

    def loss_quantiles(self, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> np.ndarray:
        return np.quantile(self.loss_rates, qs)

    def readability_quantiles(self, qs=(0.05, 0.25, 0.5, 0.75, 0.95)) -> np.ndarray:
        return np.quantile(self.readability, qs)

    def loss_by_distance(self, n_bins: int = 8) -> list[tuple[float, float, float, int]]:
        """Fig. 4(a)-style view: (bin_lo_m, bin_hi_m, mean_loss, count)."""
        edges = np.linspace(0.0, float(self.distances_m.max()), n_bins + 1)
        out = []
        which = np.digitize(self.distances_m, edges[1:-1])
        for b in range(n_bins):
            mask = which == b
            n = int(mask.sum())
            mean = float(self.loss_rates[mask].mean()) if n else float("nan")
            out.append((float(edges[b]), float(edges[b + 1]), mean, n))
        return out


@dataclass(frozen=True)
class _PopulationPlan:
    """Derived constants shared by every chunk worker."""

    frames_total: int
    base_cycles: int  # full carousel cycles within the horizon
    extra_pages: int  # pages 0..extra-1 get one extra (partial) cycle
    key_position: int
    key_shadow: int
    key_frames: int
    key_pages: int


def _make_plan(config: PopulationConfig) -> _PopulationPlan:
    frames_total = config.frames_total()
    per_cycle = config.pages * config.frames_per_page
    base_cycles = frames_total // per_cycle
    extra_pages = (frames_total % per_cycle) // config.frames_per_page
    seed = config.master_seed
    return _PopulationPlan(
        frames_total=frames_total,
        base_cycles=base_cycles,
        extra_pages=extra_pages,
        key_position=derive_key(seed, "population", "position"),
        key_shadow=derive_key(seed, "population", "shadow"),
        key_frames=derive_key(seed, "population", "frames"),
        key_pages=derive_key(seed, "population", "pages"),
    )


def _page_success_probability(p_loss: np.ndarray, frames_per_page: int) -> np.ndarray:
    """P(page decodes in one carousel cycle) per receiver.

    A bundle opens only once every chunk is present, so a page survives
    a cycle when none of its ``frames_per_page`` frames is lost:
    ``(1 - p) ** frames_per_page``, computed in the log domain.
    """
    p = np.clip(p_loss, 0.0, 1.0 - 1e-15)
    return np.exp(frames_per_page * np.log1p(-p))


def _simulate_chunk(
    model: FrameLossModel,
    config: PopulationConfig,
    plan: _PopulationPlan,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, ...]:
    """All Tier-2 statistics for receivers ``[lo, hi)``.

    Pure function of the configuration and the absolute receiver
    indices — the partition into chunks (and which process runs which
    chunk) cannot influence any value.
    """
    idx = np.arange(lo, hi, dtype=np.uint64)
    n = idx.size

    # 1. Geometry: positions -> transmitter distance.
    distances = config.geometry.sample_distances_m(plan.key_position, idx)

    # 2. Radio: RSSI with per-receiver shadowing, then audio SNR.
    shadow = (
        counter_normals(plan.key_shadow, idx) * config.shadowing_sigma_db
        if config.shadowing_sigma_db > 0
        else None
    )
    rssi = PROPAGATION.rssi_dbm_batch(distances, shadow)
    snr = model.audio_snr_from_rssi(rssi)
    p_loss = np.clip(model.frame_error_probability(snr), 0.0, 1.0)

    # 3. Frame-level losses across the whole horizon.
    frames_total = plan.frames_total
    if frames_total <= config.exact_frame_threshold:
        # Exact per-frame Bernoulli: counter (i * F + j) for receiver i,
        # frame j.  Frame blocks bound the temporary to chunk x block.
        lost = np.zeros(n, dtype=np.float64)
        block = max(1, (1 << 22) // max(n, 1))
        with np.errstate(over="ignore"):
            base = idx * np.uint64(frames_total)
            for j0 in range(0, frames_total, block):
                j = np.arange(j0, min(j0 + block, frames_total), dtype=np.uint64)
                u = counter_uniforms(plan.key_frames, base[:, None] + j[None, :])
                lost += (u < p_loss[:, None]).sum(axis=1)
    else:
        # Normal approximation of Binomial(F, p): one draw per receiver.
        z = counter_normals(plan.key_frames, idx)
        mean = frames_total * p_loss
        sd = np.sqrt(frames_total * p_loss * (1.0 - p_loss))
        # rint/clip keep the sign of -0.0; adding +0.0 makes zero loss +0.0.
        lost = np.clip(np.rint(mean + sd * z), 0.0, float(frames_total)) + 0.0
    loss_rates = lost / frames_total

    # 4. Page-level outcomes: P(decoded by end of horizon) per page,
    # one Bernoulli draw per (receiver, page) at counter (i * P + j).
    # Pages 0..extra-1 air one cycle more than the rest, so the decode
    # probability takes one value per cycle count, not one per page.
    q_cycle = _page_success_probability(p_loss, config.frames_per_page)
    log_miss = np.log1p(-np.clip(q_cycle, 0.0, 1.0 - 1e-15))
    pages_decoded = np.zeros(n, dtype=np.int64)
    with np.errstate(over="ignore"):
        page_base = idx * np.uint64(config.pages)
    for cycles, pages in (
        (plan.base_cycles + 1, range(plan.extra_pages)),
        (plan.base_cycles, range(plan.extra_pages, config.pages)),
    ):
        if cycles == 0 or not pages:
            continue
        p_decoded = -np.expm1(cycles * log_miss)
        for u in counter_uniform_columns(plan.key_pages, page_base, pages):
            pages_decoded += u < p_decoded

    # 5. Readability proxy: the user study's text question maps pixel
    # damage to a 0-10 rating; a receiver's long-run damage fraction is
    # its frame-loss rate.
    readability = 10.0 * np.exp(-_K_TEXT * loss_rates)

    return distances, rssi, p_loss, loss_rates, pages_decoded, readability


def _chunk_state(
    model: FrameLossModel, config: PopulationConfig, plan: _PopulationPlan
) -> tuple:
    """Per-worker state: the run's constants, sent once per worker."""
    return model, config, plan


def _chunk_task(state: tuple, bounds: tuple[int, int]) -> tuple[np.ndarray, ...]:
    return _simulate_chunk(*state, *bounds)


def run_population(
    model: FrameLossModel,
    config: PopulationConfig = PopulationConfig(),
    processes: int | None = None,
) -> PopulationResult:
    """Simulate ``config.n_receivers`` statistical receivers.

    ``processes`` partitions the population across a worker pool
    (``None`` runs in this process); because every draw is counter-keyed
    on absolute receiver indices, the result is bit-identical for any
    ``processes`` or ``chunk_receivers`` value.
    """
    t0 = time.perf_counter()
    plan = _make_plan(config)
    n = config.n_receivers
    bounds = [
        (lo, min(lo + config.chunk_receivers, n))
        for lo in range(0, n, config.chunk_receivers)
    ]
    processes = worker_count(processes or 1, len(bounds))
    with WorkerPool(processes, _chunk_state, model, config, plan) as pool:
        parts = pool.map(_chunk_task, bounds)

    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    distances, rssi, p_loss, loss_rates, pages_decoded, readability = merged
    return PopulationResult(
        config=config,
        frames_per_receiver=plan.frames_total,
        elapsed_s=time.perf_counter() - t0,
        distances_m=distances,
        rssi_dbm=rssi,
        loss_probs=p_loss,
        loss_rates=loss_rates,
        pages_decoded=pages_decoded,
        readability=readability,
    )


@dataclass(frozen=True)
class StationCoverage:
    """One station's slice of a region-partitioned population run."""

    station: str
    n_receivers: int
    mean_loss_rate: float
    mean_readability: float
    mean_pages_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "station": self.station,
            "n_receivers": self.n_receivers,
            "mean_loss_rate": round(self.mean_loss_rate, 4),
            "mean_readability": round(self.mean_readability, 2),
            "mean_pages_fraction": round(self.mean_pages_fraction, 4),
        }


def per_station_coverage(
    result: PopulationResult, partition: RegionPartition
) -> list[StationCoverage]:
    """Split a Tier-2 population run into per-station coverage reports.

    Receiver positions are regenerated from the run's own counter keys
    (they are a pure function of the seed, so nothing needs storing) and
    each receiver is attributed to the nearest station in ``partition``.
    Empty catchments report NaN means rather than vanishing, so a fleet
    dashboard always shows every station.
    """
    plan = _make_plan(result.config)
    idx = np.arange(result.n_receivers, dtype=np.uint64)
    lats, lons = result.config.geometry.sample_locations(plan.key_position, idx)
    which = partition.assign(lats, lons)
    pages_fraction = result.pages_fraction
    out = []
    for i, name in enumerate(partition.names):
        mask = which == i
        n = int(mask.sum())
        out.append(
            StationCoverage(
                station=name,
                n_receivers=n,
                mean_loss_rate=float(result.loss_rates[mask].mean())
                if n
                else float("nan"),
                mean_readability=float(result.readability[mask].mean())
                if n
                else float("nan"),
                mean_pages_fraction=float(pages_fraction[mask].mean())
                if n
                else float("nan"),
            )
        )
    return out
