"""Tier-2 statistical population: determinism, physics, two-tier wiring."""

import hashlib

import numpy as np
import pytest

from repro.modem.modem import Modem
from repro.radio.lossmodel import FrameLossModel
from repro.sim.geometry import Location, PopulationGeometry
from repro.sim.population import PopulationConfig, run_population
from repro.sim.receivers import FleetConfig, run_fleet


@pytest.fixture(scope="module")
def model() -> FrameLossModel:
    return FrameLossModel()


@pytest.fixture(scope="module")
def base_config() -> PopulationConfig:
    return PopulationConfig(n_receivers=20_000, hours=2.0, master_seed=13)


@pytest.fixture(scope="module")
def reference(model, base_config):
    return run_population(model, base_config)


_FIELDS = ("distances_m", "rssi_dbm", "loss_probs", "loss_rates",
           "pages_decoded", "readability")


def _identical(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in _FIELDS)


class TestPartitionInvariance:
    def test_chunk_size_is_invisible(self, model, base_config, reference):
        for chunk in (997, 4_096, 20_000, 1_000_000):
            import dataclasses

            other = run_population(
                model, dataclasses.replace(base_config, chunk_receivers=chunk)
            )
            assert _identical(reference, other)

    def test_pool_equals_serial(self, model, base_config, reference):
        import dataclasses

        pooled = run_population(
            model,
            dataclasses.replace(base_config, chunk_receivers=3_000),
            processes=2,
        )
        assert _identical(reference, pooled)

    def test_rerun_is_identical(self, model, base_config, reference):
        again = run_population(model, base_config)
        assert _identical(reference, again)

    def test_master_seed_changes_population(self, model, base_config, reference):
        import dataclasses

        other = run_population(
            model, dataclasses.replace(base_config, master_seed=14)
        )
        assert not np.array_equal(reference.loss_rates, other.loss_rates)
        assert not np.array_equal(reference.distances_m, other.distances_m)

    def test_exact_bernoulli_path_partition_invariant(self, model):
        """Short horizons draw true per-frame Bernoulli; still invariant."""
        import dataclasses

        cfg = PopulationConfig(
            n_receivers=2_000,
            hours=0.05,
            master_seed=3,
            exact_frame_threshold=10**9,
        )
        a = run_population(model, cfg)
        assert a.frames_per_receiver <= cfg.exact_frame_threshold
        b = run_population(model, dataclasses.replace(cfg, chunk_receivers=311))
        assert _identical(a, b)


def _arrays_digest(result) -> str:
    """sha256 over every per-receiver array: name, dtype and raw bytes."""
    h = hashlib.sha256()
    for name in _FIELDS:
        array = getattr(result, name)
        h.update(name.encode())
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    return h.hexdigest()


class TestPinnedValues:
    """Every population array, pinned across versions of the code.

    The partition tests above compare runs of one version with each
    other; these digests fail when a change moves any value.  They pin
    numpy's float64 ``exp``/``log`` results, so a numpy build with other
    transcendental kernels may need them re-derived from an unchanged
    tree before they can judge a change.
    """

    def test_normal_approximation_path(self, reference):
        # 31,034 frames: 2 full carousel cycles, 84 pages get a third.
        assert _arrays_digest(reference) == (
            "17ebbca311633a823c4d87285b89993ac847811c6185787f39f4e67d5282220c"
        )

    def test_exact_bernoulli_path(self, model):
        cfg = PopulationConfig(
            n_receivers=2_000,
            hours=0.05,
            master_seed=3,
            exact_frame_threshold=10**9,
        )
        assert _arrays_digest(run_population(model, cfg)) == (
            "4a0f6a7aa21a4908cbcb8800353e9bfdb4ce149219c2aeb46e88ccf07f2661f1"
        )

    def test_pages_with_zero_cycles(self, model):
        # 7,200 frames of a 12,800-frame cycle: pages 112..199 never air.
        cfg = PopulationConfig(
            n_receivers=5_000, hours=0.2, master_seed=21, frame_duration_s=0.1
        )
        result = run_population(model, cfg)
        assert result.pages_decoded.max() <= 112
        assert _arrays_digest(result) == (
            "f194a103b7ea273fbda2c843f7a5186b1a8b135b54d1ab8e302b56da4dfd96e5"
        )


class TestPhysics:
    def test_loss_grows_with_distance(self, reference):
        bands = reference.loss_by_distance(5)
        means = [m for _, _, m, n in bands if n > 100]
        assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    def test_rssi_decreases_with_distance(self, reference):
        near = reference.rssi_dbm[reference.distances_m < 200].mean()
        far = reference.rssi_dbm[reference.distances_m > 800].mean()
        assert near > far + 10

    def test_empirical_loss_tracks_model_probability(self, reference):
        # Long horizon: per-receiver empirical rates concentrate on p_i.
        err = np.abs(reference.loss_rates - reference.loss_probs)
        assert float(np.median(err)) < 0.01

    def test_pages_and_readability_follow_loss(self, reference):
        # A page needs all frames_per_page frames, so only essentially
        # loss-free receivers are guaranteed the whole catalog: even at
        # p = 0.01 a 64-frame page decodes with only (1-p)^64 ~ 0.52.
        perfect = reference.loss_probs < 1e-6
        bad = reference.loss_rates > 0.99
        assert perfect.sum() > 100 and bad.sum() > 100
        assert reference.pages_decoded[perfect].min() == reference.config.pages
        assert reference.pages_decoded[bad].max() == 0
        assert reference.readability[perfect].min() > 9.0
        assert reference.readability[bad].max() < 0.1
        # And the middle band exists: partially-served listeners.
        partial = (reference.pages_decoded > 0) & (
            reference.pages_decoded < reference.config.pages
        )
        assert partial.sum() > 100

    def test_zero_loss_is_positive_zero(self, model):
        """The normal approximation never reports a loss rate of -0.0."""
        result = run_population(
            model, PopulationConfig(n_receivers=500, hours=1.0), processes=1
        )
        assert (result.loss_rates == 0.0).any()
        assert not np.signbit(result.loss_rates).any()

    def test_positions_fill_the_disc(self, reference):
        geo = reference.config.geometry
        assert reference.distances_m.max() <= geo.radius_km * 1000.0 * 1.01
        assert reference.distances_m.min() >= geo.min_distance_m
        # Uniform over the disc: median distance ~ radius / sqrt(2).
        med = np.median(reference.distances_m)
        assert 0.6 * geo.radius_km * 1000 < med < 0.8 * geo.radius_km * 1000


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_receivers=0)
        with pytest.raises(ValueError):
            PopulationConfig(hours=0.0)
        with pytest.raises(ValueError):
            PopulationConfig(pages=0)
        with pytest.raises(ValueError):
            PopulationConfig(chunk_receivers=0)
        with pytest.raises(ValueError):
            PopulationGeometry(radius_km=0.0)

    def test_frames_total_follows_profile_timing(self):
        cfg = PopulationConfig(n_receivers=1, hours=1.0)
        modem = Modem(cfg.profile)
        expected = int(3600.0 / modem.frame_duration_s)
        assert cfg.frames_total() == expected

    def test_explicit_frame_duration_override(self):
        cfg = PopulationConfig(n_receivers=1, hours=1.0, frame_duration_s=1.0)
        assert cfg.frames_total() == 3600

    def test_geometry_is_configurable(self, model):
        cfg = PopulationConfig(
            n_receivers=500,
            hours=0.5,
            geometry=PopulationGeometry(
                center=Location(33.6844, 73.0479), radius_km=0.2
            ),
        )
        res = run_population(model, cfg)
        assert res.distances_m.max() <= 200.0 * 1.01
        # Everyone inside 200 m of a 1 km-rated transmitter decodes.
        assert res.mean_loss_rate < 0.05


class TestTwoTierFleet:
    @pytest.fixture(scope="class")
    def broadcast(self):
        modem = Modem("sonic-ofdm")
        rng = np.random.default_rng(41)
        return modem.transmit_burst(
            [
                rng.integers(0, 256, modem.frame_payload_size, dtype=np.uint8).tobytes()
                for _ in range(8)
            ]
        )

    @pytest.fixture(scope="class")
    def config(self):
        return FleetConfig(
            n_receivers=6,
            master_seed=17,
            impairment="awgn",
            snr_db=4.0,
            snr_spread_db=10.0,
            frames_per_burst=8,
            population=PopulationConfig(n_receivers=5_000, hours=1.0),
        )

    def test_two_tier_run(self, broadcast, config):
        result = run_fleet(broadcast, config, processes=1)
        assert len(result.reports) == 6
        assert result.population is not None
        assert result.population.n_receivers == 5_000
        assert result.calibration is not None
        assert result.calibration.fer_scale_db > 0

    def test_repeat_run_is_identical(self, broadcast, config):
        first = run_fleet(broadcast, config, processes=1)
        second = run_fleet(broadcast, config, processes=1)
        assert second.calibration == first.calibration
        for name in (
            "distances_m", "rssi_dbm", "loss_probs", "loss_rates",
            "pages_decoded", "readability",
        ):
            assert np.array_equal(
                getattr(first.population, name), getattr(second.population, name)
            )

    def test_population_inherits_seed_and_profile(self, broadcast, config):
        result = run_fleet(broadcast, config, processes=1)
        assert result.population.config.master_seed == config.master_seed
        assert result.population.config.profile == config.profile

    def test_population_requires_awgn_calibration(self):
        with pytest.raises(ValueError):
            FleetConfig(
                impairment="acoustic",
                population=PopulationConfig(n_receivers=10),
            )
