"""The profile tournament: frontier coverage, caching, determinism."""

import json

import numpy as np
import pytest

from repro.sim.tournament import (
    Contender,
    TournamentConfig,
    TournamentResult,
    run_tournament,
    write_frontier_report,
)

TINY = dict(
    snr_grid_db=(0.0, 14.0),
    distance_grid_m=(0.2,),
    rssi_grid_dbm=(-70.0,),
    payload_bytes=12,
    n_messages=2,
    master_seed=7,
)


@pytest.fixture(scope="module")
def tiny_result() -> TournamentResult:
    return run_tournament(TournamentConfig(**TINY), processes=1)


class TestFrontier:
    def test_covers_all_four_profiles(self, tiny_result):
        frontier = tiny_result.frontier()
        assert {row["profile"] for row in frontier} == {
            "sonic-ofdm", "fsk", "gmsk", "audioqr",
        }

    def test_sorted_fastest_first(self, tiny_result):
        rates = [row["net_bps"] for row in tiny_result.frontier()]
        assert rates == sorted(rates, reverse=True)
        # The OFDM profile is the throughput winner the paper picks.
        assert tiny_result.frontier()[0]["profile"] == "sonic-ofdm"

    def test_every_profile_wins_its_clean_cells(self, tiny_result):
        """At 14 dB AWGN every modem must decode its own probe."""
        for profile in tiny_result.config.profiles:
            rows = tiny_result.cells_for(profile, "awgn")
            best = max(rows, key=lambda c: c.value)
            assert best.n_lost == 0, profile

    def test_audioqr_dies_over_fm(self, tiny_result):
        """The FM mono chain low-passes away the 17.5-19.5 kHz band, so
        AudioQR's FM frontier entry must be empty — a real finding, not
        a bug (its chirps sit above the multiplexer's audio band)."""
        row = next(
            r for r in tiny_result.frontier() if r["profile"] == "audioqr"
        )
        assert row["min_rssi_dbm"] is None
        assert row["max_distance_m"] is not None  # fine acoustically

    def test_loss_models_fit_per_profile(self, tiny_result):
        models = tiny_result.loss_models()
        assert set(models) == set(tiny_result.config.profiles)
        for model in models.values():
            # Monotone logistic: loss grows as SNR falls.
            assert model.frame_error_probability(-20.0) > \
                model.frame_error_probability(30.0)


class TestDeterminismAndCaching:
    def test_pooled_equals_serial(self):
        serial = run_tournament(TournamentConfig(**TINY), processes=1)
        pooled = run_tournament(TournamentConfig(**TINY), processes=3)
        key = lambda c: (c.profile, c.axis, c.value, c.n_frames, c.n_lost)
        assert [key(c) for c in serial.cells] == [key(c) for c in pooled.cells]

    def test_warm_store_skips_every_cell(self, tmp_path):
        cfg = TournamentConfig(**TINY, store_dir=str(tmp_path))
        cold = run_tournament(cfg, processes=1)
        assert cold.n_cached == 0
        assert len(list(tmp_path.glob("sweep-*.json"))) == len(cold.cells)
        warm = run_tournament(cfg, processes=1)
        assert warm.n_cached == len(warm.cells)
        key = lambda c: (c.profile, c.axis, c.value, c.n_frames, c.n_lost)
        assert [key(c) for c in warm.cells] == [key(c) for c in cold.cells]

    def test_store_survives_process_boundary_shape(self, tmp_path):
        """A fresh SweepStore over the same directory answers from disk:
        each run opens its own store over ``store_dir``."""
        cfg = TournamentConfig(**TINY, store_dir=str(tmp_path))
        run_tournament(cfg, processes=1)
        warm = run_tournament(cfg, processes=1)
        assert warm.n_cached == len(warm.cells)

    def test_seed_changes_digest(self, tmp_path):
        """A different master seed must not hit the old store entries."""
        run_tournament(
            TournamentConfig(**TINY, store_dir=str(tmp_path)), processes=1
        )
        other = dict(TINY, master_seed=8)
        rerun = run_tournament(
            TournamentConfig(**other, store_dir=str(tmp_path)), processes=1
        )
        assert rerun.n_cached == 0

    def test_corrupt_store_entry_forces_remeasure(self, tmp_path):
        cfg = TournamentConfig(**TINY, store_dir=str(tmp_path))
        run_tournament(cfg, processes=1)
        victim = next(tmp_path.glob("sweep-*.json"))
        victim.write_text("{not json")
        warm = run_tournament(cfg, processes=1)
        assert warm.n_cached == len(warm.cells) - 1


class TestContender:
    def test_family_waveform_is_deterministic(self):
        cfg = TournamentConfig(**TINY)
        a = Contender("gmsk", cfg).waveform
        b = Contender("gmsk", cfg).waveform
        np.testing.assert_array_equal(a, b)

    def test_recovered_counts_multiset_matches(self):
        cfg = TournamentConfig(**TINY)
        c = Contender("fsk", cfg)
        assert c.recovered(c.waveform) == cfg.n_messages
        assert c.recovered(np.zeros(5000)) == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            TournamentConfig(profiles=())
        with pytest.raises(ValueError):
            TournamentConfig(n_messages=0)
        with pytest.raises(ValueError):
            TournamentConfig(payload_bytes=300)


class TestReport:
    def test_write_frontier_report(self, tiny_result, tmp_path):
        json_path = tmp_path / "frontier.json"
        svg_path = tmp_path / "frontier.svg"
        write_frontier_report(tiny_result, json_path, svg_path)
        data = json.loads(json_path.read_text())
        assert len(data["frontier"]) == 4
        assert len(data["cells"]) == len(tiny_result.cells)
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        # Every profile that met the threshold appears as a labelled dot.
        for row in data["frontier"]:
            if row["min_snr_db"] is not None:
                assert row["profile"] in svg

    def test_json_roundtrips_cached_flags(self, tmp_path):
        cfg = TournamentConfig(**TINY, store_dir=str(tmp_path))
        run_tournament(cfg, processes=1)
        warm = run_tournament(cfg, processes=1)
        data = json.loads(warm.to_json())
        assert all(cell["cached"] for cell in data["cells"])
