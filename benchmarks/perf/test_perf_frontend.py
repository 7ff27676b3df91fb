"""Throughput benchmark for the batched SMS request front end.

Measures sustained ingest (requests/s) and request→broadcast latency of
:class:`repro.server.frontend.RequestFrontend` over a simulated request
day, checks the serial reference run reproduces the batched ledger
bit for bit, and merges the numbers into ``BENCH_pipeline.json``.

The persistent ledger of the full run is written to
``benchmarks/output/request_ledger.sqlite`` (uploaded as a CI artifact)
so a failing latency number can be dissected offline.

Run explicitly:

    python -m repro bench -k frontend          # smoke scale (1e5 requests)
    REPRO_FULL=1 python -m repro bench -k frontend   # 1e6 requests / 24 h
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import full_scale, print_table
from repro.server.frontend import (
    FrontendConfig,
    RequestFrontend,
    SizeModelResolver,
)
from repro.server.ledger import RequestLedger
from repro.sim.workload import RequestTraceConfig, generate_requests
from repro.web.sites import SiteGenerator

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_JSON = REPO_ROOT / "BENCH_pipeline.json"


def _resolver() -> SizeModelResolver:
    return SizeModelResolver(
        SiteGenerator(seed=7, n_sites=25), max_page_bytes=12 * 1024
    )


class TestRequestFrontend:
    def test_request_throughput(self, output_dir):
        hours = 24.0 if full_scale() else 4.0
        n_requests = 1_000_000 if full_scale() else 100_000
        trace = generate_requests(
            RequestTraceConfig(
                hours=hours, n_pages=100, n_requests=n_requests, seed=42
            )
        )

        ledger_path = output_dir / "request_ledger.sqlite"
        ledger_path.unlink(missing_ok=True)
        frontend = RequestFrontend(
            _resolver(), FrontendConfig(), ledger=RequestLedger(ledger_path)
        )
        result = frontend.run(trace)
        frontend.ledger.reconcile()
        frontend.ledger.close()

        # Acceptance floor: 1e5 sustained requests/s, everything served.
        assert result.requests_per_s >= 1e5
        assert result.served_fraction == 1.0
        assert result.stats.shed == 0

        # Serial reference == batched, on a smaller trace (the
        # serial mode pays one dispatch per request by construction).
        small = generate_requests(
            RequestTraceConfig(hours=2.0, n_pages=100, n_requests=20_000, seed=3)
        )
        digests = []
        for serial in (False, True):
            fe = RequestFrontend(_resolver(), FrontendConfig())
            fe.run(small, serial=serial)
            digests.append(fe.ledger.digest())
        assert digests[0] == digests[1]

        stats = result.stats
        section = {
            "n_requests": result.n_requests,
            "hours": hours,
            "requests_per_s": result.requests_per_s,
            "elapsed_s": result.elapsed_s,
            "p50_latency_s": result.p50_latency_s,
            "p90_latency_s": result.p90_latency_s,
            "p99_latency_s": result.p99_latency_s,
            "served_fraction": result.served_fraction,
            "coalesce_ratio": stats.coalesce_ratio,
            "enqueued_pages": stats.enqueued_pages,
            "mean_batch_size": stats.mean_batch_size,
            "peak_backlog_bytes": stats.peak_backlog_bytes,
            "store_hit_rate": result.store_hit_rate,
            "ledger_digest": digests[0],
        }
        data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
        data["request_frontend"] = section
        BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

        print_table(
            f"Request front end ({result.n_requests:,} requests / {hours:.0f} h)",
            ["metric", "value"],
            [
                ["ingest", f"{result.requests_per_s:,.0f} req/s"],
                ["p50 latency", f"{result.p50_latency_s:.1f} s"],
                ["p99 latency", f"{result.p99_latency_s:.1f} s"],
                ["coalesce", f"{100 * stats.coalesce_ratio:.1f}%"],
                ["transmissions", f"{stats.enqueued_pages:,}"],
                ["ledger", str(ledger_path.name)],
            ],
        )

    def test_backpressure_sheds_instead_of_blowing_up(self):
        """Saturate a slow carousel: defer then shed, never unbounded."""
        trace = generate_requests(
            RequestTraceConfig(hours=1.0, n_pages=100, n_requests=20_000, seed=5)
        )
        config = FrontendConfig(
            rate_bps=2_000.0, max_backlog_bytes=50_000, defer_capacity=300
        )
        frontend = RequestFrontend(_resolver(), config)
        result = frontend.run(trace)
        stats = result.stats
        assert stats.shed > 0
        assert stats.peak_deferred <= config.defer_capacity
        assert stats.peak_backlog_bytes <= config.max_backlog_bytes + 12 * 1024
        counts = result.ledger_stats.counts
        assert counts.get("shed", 0) == stats.shed
