"""SMS request front end: coalescing, backpressure, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server.frontend import (
    FrontendConfig,
    RequestFrontend,
    SizeModelResolver,
)
from repro.server.ledger import RequestLedger
from repro.sim.workload import RequestTraceConfig, RequestTrace, generate_requests
from repro.web.sites import SiteGenerator
from tests.reference.frontend import ResolveAheadFrontend


def _resolver(max_page_bytes=12 * 1024, seed=7):
    return SizeModelResolver(
        SiteGenerator(seed=seed, n_sites=25), max_page_bytes=max_page_bytes
    )


#: ``SizeModelResolver`` (hits, misses) of ``test_sms_flood_like_day``.
PINNED_COUNTERS = (7_218, 132)


def _trace(**overrides) -> RequestTrace:
    defaults = dict(hours=1.0, n_pages=100, n_requests=5_000, seed=11)
    defaults.update(overrides)
    return generate_requests(RequestTraceConfig(**defaults))


class TestRequestTrace:
    def test_exact_count_mode(self):
        trace = _trace(n_requests=1_234)
        assert trace.n_requests == 1_234
        assert trace.times.size == trace.url_index.size

    def test_times_sorted_within_duration(self):
        trace = _trace()
        assert np.all(np.diff(trace.times) >= 0)
        assert trace.times[0] >= 0.0
        assert trace.times[-1] < trace.duration_s

    def test_rate_mode_approximates_rate(self):
        config = RequestTraceConfig(hours=2.0, n_pages=50, rate_per_s=5.0, seed=3)
        trace = generate_requests(config)
        expected = config.rate_per_s * config.duration_s
        assert 0.9 * expected < trace.n_requests < 1.1 * expected

    def test_deterministic_per_seed(self):
        a, b = _trace(seed=9), _trace(seed=9)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.url_index, b.url_index)
        c = _trace(seed=10)
        assert not np.array_equal(a.times, c.times)

    def test_trace_wider_than_catalog_fails_fast(self):
        # 6 sites serve 24 URLs; a 48-page trace would index past them.
        resolver = SizeModelResolver(SiteGenerator(seed=7, n_sites=6))
        fe = RequestFrontend(resolver, FrontendConfig())
        with pytest.raises(ValueError, match="48 pages .* 24 URLs"):
            fe.run(_trace(n_pages=48, n_requests=500))

    def test_zipf_head_dominates(self):
        trace = _trace(n_requests=50_000)
        counts = np.bincount(trace.url_index, minlength=100)
        # Rank-0 must beat rank-50 clearly under exponent 0.9.
        assert counts[0] > 5 * counts[50]
        assert trace.url_index.min() >= 0
        assert trace.url_index.max() < 100


class TestCoalescing:
    def test_hot_page_costs_one_transmission(self):
        # Everyone asks for page 0 within one tick: one enqueue, N-1 coalesced.
        n = 200
        trace = RequestTrace(
            times=np.linspace(0.0, 5.0, n, endpoint=False),
            url_index=np.zeros(n, dtype=np.int32),
            n_pages=100,
            duration_s=10.0,
        )
        fe = RequestFrontend(_resolver(), FrontendConfig())
        result = fe.run(trace)
        assert result.stats.enqueued_pages == 1
        assert result.stats.coalesced == n - 1
        assert result.served_fraction == 1.0

    def test_latency_percentiles_ordered(self):
        fe = RequestFrontend(_resolver(), FrontendConfig())
        result = fe.run(_trace())
        assert 0 < result.p50_latency_s <= result.p90_latency_s
        assert result.p90_latency_s <= result.p99_latency_s

    def test_epoch_replacement_supersedes_stale_page(self):
        # Across site-epoch changes, a queued page re-requested at a new
        # epoch must be replaced in place, not duplicated.
        trace = _trace(hours=30.0, n_requests=30_000, n_pages=20)
        fe = RequestFrontend(
            _resolver(max_page_bytes=None), FrontendConfig(rate_bps=2_000.0)
        )
        result = fe.run(trace)
        assert result.stats.replaced_pages > 0


class TestDeterminism:
    @pytest.mark.parametrize("max_batch", [1, 7, 8192])
    def test_any_partition_matches(self, max_batch):
        trace = _trace(n_requests=3_000)
        reference = RequestFrontend(_resolver(), FrontendConfig())
        reference.run(trace, serial=True)
        fe = RequestFrontend(_resolver(), FrontendConfig(max_batch=max_batch))
        fe.run(trace)
        assert fe.ledger.digest() == reference.ledger.digest()

    def test_backpressure_paths_match_serial(self):
        trace = _trace(n_requests=8_000, hours=0.5)
        config = FrontendConfig(max_backlog_bytes=60_000, defer_capacity=200)
        runs = []
        for serial in (False, True):
            fe = RequestFrontend(_resolver(), config)
            result = fe.run(trace, serial=serial)
            runs.append((fe.ledger.digest(), result.stats))
        (d_async, s_async), (d_serial, s_serial) = runs
        assert s_async.shed > 0  # the config actually exercised shedding
        assert d_async == d_serial
        assert (s_async.deferred, s_async.shed, s_async.retried) == (
            s_serial.deferred, s_serial.shed, s_serial.retried
        )


class TestBackpressure:
    def test_defer_then_retry_on_drain(self):
        trace = _trace(n_requests=4_000, hours=0.5)
        config = FrontendConfig(
            max_backlog_bytes=60_000, defer_capacity=5_000,
            drain_grace_hours=24.0,
        )
        fe = RequestFrontend(_resolver(), config)
        result = fe.run(trace)
        stats = result.stats
        assert stats.deferred > 0
        assert stats.retried == stats.deferred  # all parked requests landed
        assert result.served_fraction == 1.0
        counts = result.ledger_stats.counts
        assert counts == {"broadcast": trace.n_requests}

    def test_shed_when_deferral_full(self):
        trace = _trace(n_requests=8_000, hours=0.5)
        config = FrontendConfig(max_backlog_bytes=60_000, defer_capacity=100)
        fe = RequestFrontend(_resolver(), config)
        result = fe.run(trace)
        stats = result.stats
        assert stats.shed > 0
        assert stats.peak_deferred <= config.defer_capacity
        counts = result.ledger_stats.counts
        assert counts.get("shed", 0) == stats.shed
        assert sum(counts.values()) == trace.n_requests

    def test_backlog_respects_threshold_for_new_pages(self):
        trace = _trace(n_requests=8_000, hours=0.5)
        config = FrontendConfig(max_backlog_bytes=60_000, defer_capacity=100)
        fe = RequestFrontend(_resolver(), config)
        result = fe.run(trace)
        # New pages never push past the threshold; only an in-place epoch
        # replacement may (its airtime is already committed).
        assert result.stats.peak_backlog_bytes <= config.max_backlog_bytes + 12 * 1024

    def test_health_snapshot_keys(self):
        fe = RequestFrontend(_resolver(), FrontendConfig())
        fe.run(_trace(n_requests=500))
        health = fe.health()
        for key in ("sim_hours", "submitted", "backlog_mb", "coalesce_ratio"):
            assert key in health
        assert health["submitted"] == 500


class TestRetryMatchesRescan:
    """Parked requests in one FIFO walked to its block point, with a URL
    resolved only where the walk meets it off air, give the ledger,
    every stats field and the health of the per-URL retry that resolved
    ahead of its walk (``tests/reference/frontend.py``).  The resolver
    counters may only fall: no more misses, no more resolves."""

    @staticmethod
    def _outcomes(cls, trace, config, serial, max_page_kb):
        fe = cls(_resolver(max_page_bytes=max_page_kb * 1024), config)
        result = fe.run(trace, serial=serial)
        outcome = (fe.ledger.digest(), result.stats, fe.health())
        return outcome, (result.store_hits, result.store_misses)

    def _check(self, trace, config, serial, max_page_kb):
        """The front end's outcome and counters, checked against the
        reference's."""
        args = (trace, config, serial, max_page_kb)
        outcome, (hits, misses) = self._outcomes(RequestFrontend, *args)
        expected, (ref_hits, ref_misses) = self._outcomes(ResolveAheadFrontend, *args)
        assert outcome == expected
        assert misses <= ref_misses
        assert hits + misses <= ref_hits + ref_misses
        return outcome, (hits, misses)

    def test_sms_flood_like_day(self):
        trace = _trace(n_requests=6_000, hours=1.5)
        config = FrontendConfig(max_backlog_bytes=200_000, defer_capacity=2_000)
        (_, stats, _), counters = self._check(trace, config, False, 60)
        assert stats.retried > 500 and stats.shed > 0
        assert counters == PINNED_COUNTERS

    @settings(max_examples=20, deadline=None)
    @given(
        backlog_pages=st.integers(min_value=1, max_value=8),
        defer_capacity=st.integers(min_value=1, max_value=600),
        max_batch=st.sampled_from([1, 5, 64, 8192]),
        serial=st.booleans(),
        max_page_kb=st.sampled_from([12, 30, 60]),
        hours=st.sampled_from([0.5, 1.5]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_backpressure_configs(
        self, backlog_pages, defer_capacity, max_batch, serial, max_page_kb, hours, seed
    ):
        trace = _trace(n_requests=1_500, hours=hours, seed=seed)
        config = FrontendConfig(
            max_backlog_bytes=backlog_pages * max_page_kb * 1024 + 512,
            defer_capacity=defer_capacity,
            max_batch=max_batch,
        )
        self._check(trace, config, serial, max_page_kb)


class _CountingResolver:
    """Every page costs ``size`` bytes; each ``resolve_batch`` call is kept."""

    def __init__(self, size: int) -> None:
        self.generator = SiteGenerator(seed=7, n_sites=25)
        self.urls = self.generator.all_urls()
        self.size = size
        self.store_hits = self.store_misses = 0
        self.calls: list[list[int]] = []

    def resolve_batch(self, url_indices, hour):
        self.calls.append(list(url_indices))
        return [self.size] * len(url_indices)


class TestRetryResolvesOnlyWhereItWalks:
    def test_blocked_tick_resolves_one_url_and_a_retry_only_what_it_reached(self):
        # One 10 kB page fits the backlog and drains over four ticks.
        # Page 0 goes on air; requests for pages 1, 1, 2, 3, 1 park.
        resolver = _CountingResolver(10_000)
        fe = RequestFrontend(
            resolver, FrontendConfig(rate_bps=2_000.0, max_backlog_bytes=10_000)
        )
        fe.submit_batch(
            np.arange(6, dtype=np.int64),
            np.array([0, 1, 1, 2, 3, 1]),
            np.zeros(6),
        )
        assert resolver.calls == [[0, 1, 2, 3]]
        assert fe.stats.deferred == 5
        tick = 0
        while fe.stats.retried == 0:
            resolver.calls.clear()
            tick += 1
            fe.advance_to_tick(tick)
            if fe.stats.retried == 0:
                # Page 1, at the head, is still blocked behind page 0.
                assert resolver.calls == [[1]]
        # Page 0 completed: the walk puts page 1 on air, retries both of
        # its requests ahead of page 2, and stops at page 2.  Page 3,
        # behind the block point, is never resolved.
        assert tick == 4
        assert resolver.calls == [[1], [2]]
        assert fe.stats.retried == 2
        assert fe.health()["deferred"] == 3


class TestLedgerIntegration:
    def test_file_ledger_survives_reopen(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        fe = RequestFrontend(
            _resolver(), FrontendConfig(), ledger=RequestLedger(path)
        )
        result = fe.run(_trace(n_requests=2_000))
        digest = fe.ledger.digest()
        fe.ledger.close()

        reopened = RequestLedger(path)
        assert len(reopened) == 2_000
        assert reopened.digest() == digest
        assert reopened.reconcile() == result.ledger_stats.counts
        reopened.close()

    def test_stats_percentiles(self):
        fe = RequestFrontend(_resolver(), FrontendConfig())
        result = fe.run(_trace(n_requests=1_000))
        stats = result.ledger_stats
        assert stats.n_requests == 1_000
        assert stats.n_broadcast == 1_000
        assert stats.percentile(50.0) <= stats.percentile(99.0)
