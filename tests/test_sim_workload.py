"""Broadcast workload (Figure 4(c) engine)."""

import numpy as np
import pytest

from repro.sim.workload import BroadcastWorkload, PageSizeModel, WorkloadConfig
from repro.web.sites import SiteGenerator


class TestSizeModel:
    def test_deterministic(self):
        gen = SiteGenerator(seed=1)
        model = PageSizeModel(gen)
        url = gen.all_urls()[0]
        assert model.size_at(url, 3) == model.size_at(url, 3)

    def test_epoch_jitter_small(self):
        gen = SiteGenerator(seed=1)
        model = PageSizeModel(gen)
        url = gen.all_urls()[0]
        sizes = [model.size_at(url, e) for e in range(10)]
        assert max(sizes) / min(sizes) < 1.8

    def test_calibration_overrides(self):
        gen = SiteGenerator(seed=1)
        model = PageSizeModel(gen)
        url = gen.all_urls()[0]
        model.calibrate({url: 123_456})
        assert model.base_size(url) == 123_456

    def test_calibration_overrides_a_modelled_size_already_read(self):
        gen = SiteGenerator(seed=1)
        model = PageSizeModel(gen)
        url = gen.all_urls()[0]
        modelled = model.base_size(url)
        model.calibrate({url: modelled + 1})
        assert model.base_size(url) == modelled + 1
        assert model.base_size(gen.all_urls()[1]) == PageSizeModel(gen).base_size(
            gen.all_urls()[1]
        )

    def test_sizes_in_paper_range(self):
        gen = SiteGenerator(seed=1)
        model = PageSizeModel(gen)
        sizes = [model.base_size(u) for u in gen.all_urls()]
        assert 100_000 < np.median(sizes) < 500_000


class TestWorkload:
    @pytest.fixture(scope="class")
    def short_runs(self):
        results = {}
        for rate in (10_000, 40_000):
            wl = BroadcastWorkload(WorkloadConfig(rate_bps=rate, n_hours=24))
            results[rate] = wl.run()
        return results

    def test_backlog_nonnegative(self, short_runs):
        for res in short_runs.values():
            assert (res.backlog_mb >= 0).all()

    def test_10kbps_rarely_drains(self, short_runs):
        """The paper: at 10 kbps the queue rarely reaches zero."""
        assert short_runs[10_000].fraction_time_empty() < 0.15

    def test_40kbps_drains_often(self, short_runs):
        assert short_runs[40_000].fraction_time_empty() > 0.3

    def test_higher_rate_lower_backlog(self, short_runs):
        assert (
            short_runs[40_000].backlog_mb.mean()
            < short_runs[10_000].backlog_mb.mean()
        )

    def test_bounded_backlog(self, short_runs):
        """SONIC is scalable: backlog does not grow without bound."""
        series = short_runs[10_000].backlog_mb
        first_half = series[: series.size // 2].max()
        assert series.max() < first_half * 2

    def test_n200_at_20k_like_n100_at_10k(self):
        a = BroadcastWorkload(
            WorkloadConfig(rate_bps=10_000, n_pages=100, n_hours=12)
        ).run()
        b = BroadcastWorkload(
            WorkloadConfig(rate_bps=20_000, n_pages=200, n_hours=12)
        ).run()
        # Twice the content at twice the rate: same saturation regime.
        assert b.fraction_time_empty() < 0.15
        assert b.backlog_mb.mean() > a.backlog_mb.mean()

    def test_invalid_page_count(self):
        with pytest.raises(ValueError):
            WorkloadConfig(n_pages=150).n_sites
