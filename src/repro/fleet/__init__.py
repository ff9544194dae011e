"""Multi-replica fleet serving on top of the single-server simulator.

Public surface:

* :class:`~repro.fleet.config.FleetConfig` — frozen, validated fleet
  configuration composing per-shard
  :class:`~repro.serving.config.ServerConfig` instances.
* :class:`~repro.fleet.server.FleetServer` /
  :class:`~repro.fleet.server.FleetResult` — the front end (router +
  admission control) over N unmodified ``EnsembleServer`` shards.
* :mod:`~repro.fleet.routers` — the placement-policy registry
  (``hash``, ``power_of_two``, ``score_aware``).

A traced fleet's telemetry merge lives in :mod:`repro.fleet.telemetry`.
"""

from repro.fleet.config import FleetConfig
from repro.fleet.routers import (
    ROUTERS,
    ConsistentHashRouter,
    FleetRouter,
    PowerOfTwoRouter,
    ScoreAwareRouter,
    make_router,
)
from repro.fleet.server import FleetResult, FleetServer

__all__ = [
    "FleetConfig",
    "FleetServer",
    "FleetResult",
    "FleetRouter",
    "ConsistentHashRouter",
    "PowerOfTwoRouter",
    "ScoreAwareRouter",
    "ROUTERS",
    "make_router",
]
