"""Calibration fitting: recovery, monotonicity, digests, convergence."""

import numpy as np
import pytest

from repro.radio.lossmodel import (
    FrameLossModel,
    calibration_digest,
    fit_logistic_fer,
)
from repro.sim.population import PopulationConfig, run_population
from repro.util.rng import derive_rng


def _synthetic_samples(mid, scale, snrs, n_frames, seed):
    rng = derive_rng(seed, "fit-samples")
    z = np.clip((np.asarray(snrs) - mid) / scale, -40, 40)
    p = 1.0 / (1.0 + np.exp(z))
    lost = rng.binomial(n_frames, p)
    return [(float(s), n_frames, int(l)) for s, l in zip(snrs, lost)]


class TestFit:
    def test_recovers_generating_curve(self):
        samples = _synthetic_samples(3.3, 0.45, np.linspace(0, 7, 40), 200, 1)
        model = FrameLossModel.fit_from_runs(samples)
        assert model.fer_midpoint_db == pytest.approx(3.3, abs=0.2)
        assert model.fer_scale_db == pytest.approx(0.45, rel=0.4)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_fitted_curve_monotone_in_snr_and_rssi(self, seed):
        """Property: whatever the (noisy) samples, the fitted FER is
        monotone decreasing in audio SNR and non-increasing in RSSI."""
        rng = derive_rng(seed, "prop-fit")
        mid = float(rng.uniform(0, 8))
        scale = float(rng.uniform(0.1, 2.0))
        samples = _synthetic_samples(
            mid, scale, np.linspace(mid - 5, mid + 5, 25), 64, seed
        )
        model = FrameLossModel.fit_from_runs(samples)
        snr_grid = np.linspace(-10, 20, 200)
        fer = model.frame_error_probability(snr_grid)
        assert np.all(np.diff(fer) <= 1e-12)
        rssi_grid = np.linspace(-100, -60, 200)
        fer_rssi = model.frame_error_probability(
            model.audio_snr_from_rssi(rssi_grid)
        )
        assert np.all(np.diff(fer_rssi) <= 1e-12)

    def test_degenerate_all_ok_saturates_low(self):
        samples = [(s, 100, 0) for s in np.linspace(5, 15, 10)]
        model = FrameLossModel.fit_from_runs(samples)
        assert model.frame_error_probability(10.0) < 0.05

    def test_rejects_empty_and_malformed(self):
        with pytest.raises(ValueError):
            fit_logistic_fer([], [], [])
        with pytest.raises(ValueError):
            fit_logistic_fer([1.0], [10], [11])

    def test_fit_is_deterministic(self):
        samples = _synthetic_samples(3.0, 0.5, np.linspace(0, 6, 20), 100, 9)
        a = FrameLossModel.fit_from_runs(samples)
        b = FrameLossModel.fit_from_runs(samples)
        assert (a.fer_midpoint_db, a.fer_scale_db) == (
            b.fer_midpoint_db,
            b.fer_scale_db,
        )


class TestPersistence:
    def test_digest_sensitivity(self):
        a = calibration_digest("sonic-ofdm", snr_db=4.0)
        assert a == calibration_digest("sonic-ofdm", snr_db=4.0)
        assert a != calibration_digest("sonic-fsk", snr_db=4.0)
        assert a != calibration_digest("sonic-ofdm", snr_db=5.0)
        assert a != calibration_digest("sonic-ofdm", snr_db=4.0, extra=1)


class TestStatisticalConvergence:
    def test_population_loss_converges_to_curve_at_1e5(self):
        """KS distance between the Tier-2 empirical loss distribution and
        the generating curve's predicted distribution, at n = 1e5.

        Each receiver's drawn loss rate concentrates on its model
        probability as the horizon grows, so the two population CDFs
        must agree tightly.
        """
        model = FrameLossModel()
        config = PopulationConfig(n_receivers=100_000, hours=8.0, master_seed=29)
        result = run_population(model, config)
        empirical = np.sort(result.loss_rates)
        # A horizon of F frames resolves loss rates to multiples of 1/F:
        # the curve's prediction for the *empirical* distribution is its
        # probabilities quantised to that grid (a receiver at p = 1e-18
        # loses exactly zero of its 1e5 frames).
        f = result.frames_per_receiver
        predicted = np.sort(np.rint(result.loss_probs * f) / f)
        grid = np.linspace(0.0, 1.0, 2001)
        ks = np.max(
            np.abs(
                np.searchsorted(empirical, grid, side="right")
                - np.searchsorted(predicted, grid, side="right")
            )
            / empirical.size
        )
        assert ks < 0.02

    def test_short_horizon_mean_loss_matches_expectation(self):
        """Exact-Bernoulli path: population mean loss ~ mean model p."""
        model = FrameLossModel()
        config = PopulationConfig(
            n_receivers=20_000,
            hours=0.05,
            master_seed=31,
            exact_frame_threshold=10**9,
        )
        result = run_population(model, config)
        assert result.mean_loss_rate == pytest.approx(
            float(result.loss_probs.mean()), abs=0.01
        )


class TestArrayAwareCurves:
    def test_scalar_and_array_paths_agree(self):
        model = FrameLossModel()
        snrs = np.linspace(-5, 15, 11)
        arr = model.frame_error_probability(snrs)
        for s, p in zip(snrs, arr):
            assert model.frame_error_probability(float(s)) == pytest.approx(p)
        rssis = np.linspace(-95, -60, 11)
        arr = model.audio_snr_from_rssi(rssis)
        for r, v in zip(rssis, arr):
            assert model.audio_snr_from_rssi(float(r)) == pytest.approx(v)

    def test_instance_constants_change_the_curve(self):
        steep = FrameLossModel(fer_midpoint_db=5.0, fer_scale_db=0.1)
        assert steep.frame_error_probability(4.5) > 0.95
        assert steep.frame_error_probability(5.5) < 0.05
