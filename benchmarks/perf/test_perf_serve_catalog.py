"""Full-fidelity catalog serving over a persistent render pool.

Replays a simulated request day through :class:`RequestFrontend` with
the *real* render+encode resolver (:class:`CatalogResolver` over a
:class:`CatalogPipeline`): one warm worker pool for the whole day
(in-process on single-CPU hosts), renders submitted ahead of the commit
point, and speculative next-hour prefetch.  Every request must reach
the air; numbers land in the ``serve_catalog`` section of
``BENCH_pipeline.json``, which ``repro bench --smoke`` gates against.

Run explicitly:

    python -m repro bench -k serve_catalog
    REPRO_FULL=1 python -m repro bench -k serve_catalog   # 30k requests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.conftest import full_scale, print_table
from repro.server.cache import BundleStore
from repro.server.catalog import CatalogConfig, CatalogPipeline
from repro.server.frontend import CatalogResolver, FrontendConfig, RequestFrontend
from repro.sim.workload import RequestTraceConfig, generate_requests

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_JSON = REPO_ROOT / "BENCH_pipeline.json"

HOURS = 24.0
N_PAGES = 24


class TestServeCatalog:
    def test_persistent_pool_day(self):
        n_requests = 30_000 if full_scale() else 6_000
        trace = generate_requests(
            RequestTraceConfig(
                hours=HOURS, n_pages=N_PAGES, n_requests=n_requests, seed=42
            )
        )

        pipeline = CatalogPipeline(
            CatalogConfig(seed=42, n_sites=6, width=360, max_height=600, quality=10),
            store=BundleStore(),
        ).start()
        frontend = RequestFrontend(CatalogResolver(pipeline), FrontendConfig())
        result = frontend.run(trace)
        digest = frontend.ledger.digest()
        pipeline.close()
        frontend.ledger.close()

        assert result.served_fraction == 1.0

        section = {
            "hours": HOURS,
            "n_requests": n_requests,
            "requests_per_s": result.requests_per_s,
            "elapsed_s": result.elapsed_s,
            "pages_rendered": result.store_misses,
            "pages_rendered_per_s": result.store_misses / result.elapsed_s,
            "store_hit_rate": result.store_hit_rate,
            "prefetch_submitted": pipeline.prefetch_submitted,
            "prefetch_used": pipeline.prefetch_used,
            "ledger_digest": digest,
        }
        data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
        data["serve_catalog"] = section
        BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

        print_table(
            f"Catalog serving ({n_requests:,} requests / {HOURS:.0f} h)",
            ["metric", "value"],
            [
                ["persistent pool", f"{result.requests_per_s:,.0f} req/s"],
                ["store hit rate", f"{100 * result.store_hit_rate:.1f}%"],
                [
                    "prefetch",
                    f"{pipeline.prefetch_used}/{pipeline.prefetch_submitted} used",
                ],
            ],
        )
