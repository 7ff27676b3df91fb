"""Parallel multi-receiver fleet simulation.

SONIC's evaluation sweeps loss/SNR grids over many receivers all tuned
to the *same* broadcast — the transmit side is one waveform, the receive
side is N independent radios, each behind its own channel realisation.
This module fans a shared broadcast waveform out to a fleet of simulated
receivers across a :class:`~repro.util.parallel.WorkerPool`:

* the waveform reaches the workers once, as a read-only shared-memory
  array, so a minutes-long broadcast is not pickled per worker;
* every receiver draws its channel impairment from
  ``derive_rng(master_seed, "fleet-rx", idx)``, which makes the fleet's
  loss maps identical whether it runs serially or on the pool; and
* each worker (or, serially, this process) builds one
  :class:`~repro.modem.modem.Modem` and reuses it for every receiver it
  simulates.

The per-receiver loss maps feed the existing workload/user-study layers
exactly like a single :meth:`Modem.receive` call would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.modem.modem import Modem
from repro.radio.channels import AcousticChannel
from repro.radio.lossmodel import CalibrationStore, FrameLossModel, calibration_digest
from repro.sim.population import PopulationConfig, PopulationResult, run_population
from repro.util.parallel import WorkerPool, worker_count
from repro.util.rng import derive_rng

__all__ = [
    "FleetConfig",
    "ReceiverReport",
    "FleetResult",
    "run_fleet",
    "calibrate_loss_model",
]

IMPAIRMENTS = ("clean", "awgn", "acoustic")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: who listens, through what channel, to which profile."""

    n_receivers: int = 8
    master_seed: int = 0
    profile: str = "sonic-ofdm"
    impairment: str = "awgn"  # one of IMPAIRMENTS
    frames_per_burst: int | None = 16
    # With chunk_samples set, each receiver runs the chunked dataflow
    # (channel stream + StreamingReceiver) in O(chunk) working memory.
    # Loss maps are bit-identical to the batch path by construction.
    chunk_samples: int | None = None
    # AWGN impairment: per-receiver SNR drawn uniformly from
    # [snr_db - snr_spread_db/2, snr_db + snr_spread_db/2].
    snr_db: float = 14.0
    snr_spread_db: float = 6.0
    # Acoustic impairment: per-receiver speaker-mic distance drawn the
    # same way around distance_m.
    distance_m: float = 0.9
    distance_spread_m: float = 0.4
    # Two-tier mode: with a PopulationConfig, the full-modem receivers
    # above become Tier 1 — a calibration sample whose decode outcomes
    # fit the RSSI/SNR -> frame-loss curve driving a Tier-2 statistical
    # population of population.n_receivers listeners.  The population
    # inherits this config's master_seed and profile.
    population: PopulationConfig | None = None
    # Directory for persisted calibration curves (None = refit per run).
    calibration_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_receivers < 1:
            raise ValueError("fleet needs at least one receiver")
        if self.impairment not in IMPAIRMENTS:
            raise ValueError(
                f"impairment must be one of {IMPAIRMENTS}, got {self.impairment!r}"
            )
        if self.chunk_samples is not None and self.chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        if self.population is not None and self.impairment != "awgn":
            raise ValueError(
                "population mode calibrates its loss curve from the awgn "
                "fleet (audio-SNR domain); use impairment='awgn'"
            )


@dataclass(frozen=True)
class ReceiverReport:
    """Decode outcome of one receiver in the fleet."""

    receiver_id: int
    channel_param: float  # realised SNR (dB) or distance (m); 0 for clean
    n_frames: int  # frames detected
    n_ok: int  # frames that decoded and passed CRC
    loss_map: tuple[bool, ...]  # True = lost, per detected frame

    @property
    def frame_loss_rate(self) -> float:
        return 1.0 - self.n_ok / self.n_frames if self.n_frames else 1.0


@dataclass(frozen=True)
class FleetResult:
    """Aggregate outcome of :func:`run_fleet`."""

    reports: tuple[ReceiverReport, ...]
    processes: int
    elapsed_s: float
    # Two-tier mode only: the fitted (or store-loaded) loss curve and
    # the Tier-2 statistical population it drove.
    calibration: FrameLossModel | None = None
    calibration_cached: bool = False
    population: PopulationResult | None = None

    @property
    def n_receivers(self) -> int:
        return len(self.reports)

    @property
    def receivers_per_s(self) -> float:
        return self.n_receivers / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def mean_loss_rate(self) -> float:
        return float(np.mean([r.frame_loss_rate for r in self.reports]))

    def loss_maps(self) -> list[tuple[bool, ...]]:
        return [r.loss_map for r in self.reports]


def _draw_channel(
    config: FleetConfig, idx: int
) -> tuple[float, AcousticChannel | None, np.random.Generator]:
    """Receiver ``idx``'s channel realisation, shared by batch + stream.

    All randomness is keyed on ``(master_seed, "fleet-rx", idx)`` only,
    so the realisation does not depend on which process runs the
    receiver.  Returns ``(parameter, acoustic_channel, rng)``: the
    parameter is the realised SNR (dB), distance (m), or 0.0 for clean;
    the channel is built only for the acoustic impairment; the rng has
    consumed exactly the draws both paths share, so callers continue
    the stream identically (AWGN noise comes out of this same rng in
    the batch array draw and the chunked stream alike).
    """
    rng = derive_rng(config.master_seed, "fleet-rx", idx)
    if config.impairment == "clean":
        return 0.0, None, rng
    if config.impairment == "awgn":
        snr_db = config.snr_db + config.snr_spread_db * (rng.random() - 0.5)
        return snr_db, None, rng
    distance = config.distance_m + config.distance_spread_m * (rng.random() - 0.5)
    distance = max(0.0, distance)
    channel = AcousticChannel(seed=int(rng.integers(0, 2**31 - 1)))
    return distance, channel, rng


def _awgn_sigma(waveform: np.ndarray, snr_db: float) -> float:
    signal_power = float(np.mean(waveform**2)) if waveform.size else 0.0
    return float(np.sqrt(signal_power / (10.0 ** (snr_db / 10.0))))


def _impair(
    waveform: np.ndarray, config: FleetConfig, idx: int
) -> tuple[np.ndarray, float]:
    """Apply receiver ``idx``'s channel draw; returns (audio, parameter)."""
    param, channel, rng = _draw_channel(config, idx)
    if config.impairment == "clean":
        return waveform, param
    if config.impairment == "awgn":
        noisy = waveform + rng.normal(0.0, _awgn_sigma(waveform, param), waveform.size)
        return noisy, param
    return channel.transmit(waveform, param), param


def _impair_stream(
    waveform: np.ndarray, config: FleetConfig, idx: int
) -> tuple[object | None, float]:
    """Chunk-capable channel for receiver ``idx``; same draws as batch.

    The AWGN stream continues the very generator bit stream the batch
    path consumes in one whole-array draw, and the acoustic stream is
    pinned bit-exact against :meth:`AcousticChannel.transmit`, so the
    chunked fleet produces identical loss maps.
    """
    from repro.radio.streams import AwgnStream

    param, channel, rng = _draw_channel(config, idx)
    if config.impairment == "clean":
        return None, param
    if config.impairment == "awgn":
        return AwgnStream(rng, _awgn_sigma(waveform, param)), param
    signal_power = float(np.mean(waveform**2)) if waveform.size else 0.0
    return channel.stream(param, waveform.size, signal_power), param


def _receive_one(
    waveform: np.ndarray, modem: Modem, config: FleetConfig, idx: int
) -> ReceiverReport:
    if config.chunk_samples is not None:
        return _receive_one_streaming(waveform, modem, config, idx)
    audio, param = _impair(waveform, config, idx)
    frames = modem.receive(audio, frames_per_burst=config.frames_per_burst)
    loss_map = tuple(not f.ok for f in frames)
    return ReceiverReport(
        receiver_id=idx,
        channel_param=float(param),
        n_frames=len(frames),
        n_ok=int(sum(f.ok for f in frames)),
        loss_map=loss_map,
    )


def _receive_one_streaming(
    waveform: np.ndarray, modem: Modem, config: FleetConfig, idx: int
) -> ReceiverReport:
    """Chunked channel + receiver pipeline: O(chunk) working memory.

    The broadcast waveform itself lives once (shared memory on the
    pool); per-receiver state is one chunk in flight plus at most one
    burst buffered inside the streaming receiver.
    """
    from repro.modem.streaming import StreamingReceiver

    stream, param = _impair_stream(waveform, config, idx)
    receiver = StreamingReceiver(modem, frames_per_burst=config.frames_per_burst)
    frames = []
    step = config.chunk_samples
    for i in range(0, waveform.size, step):
        chunk = waveform[i : i + step]
        if stream is not None:
            chunk = stream.process(chunk)
        frames += receiver.push(chunk)
    if stream is not None:
        tail = stream.finish()
        if tail.size:
            frames += receiver.push(tail)
    frames += receiver.finish()
    loss_map = tuple(not f.ok for f in frames)
    return ReceiverReport(
        receiver_id=idx,
        channel_param=float(param),
        n_frames=len(frames),
        n_ok=int(sum(f.ok for f in frames)),
        loss_map=loss_map,
    )


def _fleet_receiver(config: FleetConfig, wave: np.ndarray) -> tuple:
    """Per-worker state: the broadcast plus one Modem reused per receiver."""
    return wave, Modem(config.profile), config


def _receive_task(state: tuple, idx: int) -> ReceiverReport:
    return _receive_one(*state, idx)


def _run_modem_fleet(
    waveform: np.ndarray, config: FleetConfig, processes: int | None
) -> tuple[tuple[ReceiverReport, ...], int, float]:
    """The full-modem (Tier-1) fleet: every receiver runs real DSP."""
    waveform = np.ascontiguousarray(waveform, dtype=np.float64)
    processes = worker_count(processes, config.n_receivers)
    t0 = time.perf_counter()
    with WorkerPool(
        processes, _fleet_receiver, config, arrays={"wave": waveform}
    ) as pool:
        reports = tuple(
            pool.map(
                _receive_task,
                range(config.n_receivers),
                chunksize=max(1, config.n_receivers // (4 * processes)),
            )
        )
    return reports, processes, time.perf_counter() - t0


def _calibration_key(waveform: np.ndarray, config: FleetConfig) -> str:
    import hashlib

    wave_digest = hashlib.sha256(
        np.ascontiguousarray(waveform, dtype=np.float64).tobytes()
    ).hexdigest()[:16]
    return calibration_digest(
        config.profile,
        impairment=config.impairment,
        snr_db=config.snr_db,
        snr_spread_db=config.snr_spread_db,
        frames_per_burst=config.frames_per_burst,
        n_receivers=config.n_receivers,
        master_seed=config.master_seed,
        waveform=wave_digest,
    )


def calibrate_loss_model(
    reports: tuple[ReceiverReport, ...], seed: int = 0
) -> FrameLossModel:
    """Fit the RSSI/SNR -> frame-loss curve to Tier-1 fleet outcomes.

    Each AWGN fleet report contributes one sweep point: ``n_frames``
    decode attempts at its realised audio SNR (``channel_param``), of
    which ``n_frames - n_ok`` failed.
    """
    samples = [
        (r.channel_param, r.n_frames, r.n_frames - r.n_ok)
        for r in reports
        if r.n_frames > 0
    ]
    return FrameLossModel.fit_from_runs(samples, seed=seed)


def run_fleet(
    waveform: np.ndarray,
    config: FleetConfig = FleetConfig(),
    processes: int | None = None,
) -> FleetResult:
    """Simulate ``config.n_receivers`` receivers of one broadcast.

    ``processes=None`` picks ``min(n_receivers, cpu_count)``;
    ``processes<=1`` runs serially in this process (bit-identical loss
    maps either way, by construction of the per-receiver seeds).

    With ``config.population`` set, this becomes the two-tier run: the
    full-modem receivers above are Tier 1, their decode outcomes fit
    (or a persisted calibration provides) the frame-loss curve, and a
    Tier-2 statistical population of ``population.n_receivers``
    listeners runs through :func:`repro.sim.population.run_population`
    — all under the same master seed, bit-identical for any process or
    chunk partitioning.
    """
    t0 = time.perf_counter()
    reports, used, _ = _run_modem_fleet(waveform, config, processes)
    if config.population is None:
        return FleetResult(reports, used, time.perf_counter() - t0)

    store = CalibrationStore(config.calibration_dir)
    digest = _calibration_key(waveform, config)
    model = store.load(digest)
    cached = model is not None
    if model is None:
        model = calibrate_loss_model(reports, seed=config.master_seed)
        store.save(digest, model)

    pop_config = replace(
        config.population,
        master_seed=config.master_seed,
        profile=config.profile,
    )
    population = run_population(model, pop_config, processes=processes)
    return FleetResult(
        reports,
        used,
        time.perf_counter() - t0,
        calibration=model,
        calibration_cached=cached,
        population=population,
    )
