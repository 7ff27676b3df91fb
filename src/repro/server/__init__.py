"""The SONIC server (paper Section 3.1).

Responsibilities: render requested webpages into screenshot bundles,
keep the encoded bundles in a store, pick the FM transmitter that
covers the requesting user, queue broadcasts, answer requests over SMS
with delivery estimates, and preemptively push the region's popular
pages.
"""

from repro.server.transmitters import (
    BroadcastEncodeCache,
    CacheStats,
    Transmitter,
    TransmitterRegistry,
    payload_digest,
)
from repro.server.frontend import (
    CatalogResolver,
    FrontendConfig,
    FrontendResult,
    FrontendStats,
    RequestFrontend,
    SizeModelResolver,
)
from repro.server.ledger import LedgerStats, RequestLedger
from repro.server.network import (
    BroadcastNetwork,
    NetworkConfig,
    NetworkResult,
    RegionSpec,
    StationReport,
    run_network,
)
from repro.server.scheduler import (
    AdaptiveProfileSelector,
    DemandConfig,
    DemandScheduler,
    PopularityScheduler,
    schedule_digest,
)
from repro.server.server import SonicServer, ServerConfig

__all__ = [
    "CatalogResolver",
    "FrontendConfig",
    "FrontendResult",
    "FrontendStats",
    "RequestFrontend",
    "SizeModelResolver",
    "LedgerStats",
    "RequestLedger",
    "BroadcastEncodeCache",
    "CacheStats",
    "payload_digest",
    "Transmitter",
    "TransmitterRegistry",
    "AdaptiveProfileSelector",
    "DemandConfig",
    "DemandScheduler",
    "PopularityScheduler",
    "schedule_digest",
    "BroadcastNetwork",
    "NetworkConfig",
    "NetworkResult",
    "RegionSpec",
    "StationReport",
    "run_network",
    "SonicServer",
    "ServerConfig",
]
