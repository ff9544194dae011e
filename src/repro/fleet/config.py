"""Fleet configuration: a frozen composition of :class:`ServerConfig`.

A fleet is N independent shards, each running the existing
:class:`~repro.serving.server.EnsembleServer` event loop unmodified,
behind one front-end router with admission control. This module
extends the PR-2 construction pattern one level up: ``FleetConfig``
composes per-shard ``ServerConfig`` instances exactly the way
``ServerConfig`` composes serving knobs — frozen, validated in
``__post_init__``, copy-on-write via :meth:`FleetConfig.replace`::

    fleet = FleetConfig.uniform(4, ServerConfig(max_buffer=32))
    server = FleetServer.from_config(latencies, policy, fleet)
    bigger = fleet.replace(queue_limit=128, router="score_aware")

All validation lives here; :class:`~repro.fleet.server.FleetServer`
trusts a ``FleetConfig`` completely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.control.config import ControlConfig
from repro.fleet.routers import ROUTERS
from repro.serving.config import ServerConfig


@dataclass(frozen=True)
class FleetConfig:
    """Every fleet-level knob of :class:`~repro.fleet.server.FleetServer`.

    Attributes:
        shards: One :class:`ServerConfig` per shard (any iterable is
            normalised to a tuple). Each shard runs its own unmodified
            ``EnsembleServer`` with exactly this config.
        router: Placement policy name, one of the
            :data:`~repro.fleet.routers.ROUTERS` registry keys
            (``"hash"``, ``"power_of_two"``, ``"score_aware"``).
        queue_limit: Admission capacity per shard, in queries: the
            front end admits a query onto a shard only while its
            estimated backlog is below this. A full policy-chosen
            shard triggers one redirect to the least-loaded shard;
            if that is full too the query is shed before any shard
            buffers it.
        hash_replicas: Virtual nodes per shard on the consistent-hash
            ring (used by ``"hash"`` and the affinity half of
            ``"score_aware"``).
        hard_quantile: Difficulty-rank threshold for
            ``"score_aware"``: queries at or above it are routed to
            the least-loaded shard.
        seed: Router seed (ring salt and power-of-two RNG); the fleet
            is byte-identical across runs for a fixed seed.
        control: Optional :class:`~repro.control.config.ControlConfig`.
            When set, the fleet runs in *controlled* mode: admission
            and the shard event loops are interleaved in epochs of
            ``control.interval`` seconds and an SLO-driven controller
            scales replica sets, tightens admission, and degrades
            ensemble quality mid-run (see :mod:`repro.control`).
            ``None`` (the default) runs a static fleet: the same loop
            as a single epoch that admits every arrival, with no
            controller.
    """

    shards: Tuple[ServerConfig, ...] = (ServerConfig(), ServerConfig())
    router: str = "power_of_two"
    queue_limit: int = 64
    hash_replicas: int = 64
    hard_quantile: float = 0.75
    seed: int = 0
    control: Optional[ControlConfig] = None

    def __post_init__(self):
        shards = tuple(self.shards)
        object.__setattr__(self, "shards", shards)
        if not shards:
            raise ValueError("shards must name at least one ServerConfig")
        for index, shard in enumerate(shards):
            if not isinstance(shard, ServerConfig):
                raise TypeError(
                    f"shards[{index}] must be a ServerConfig, got "
                    f"{type(shard).__name__}"
                )
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; choose from "
                f"{sorted(ROUTERS)}"
            )
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.hash_replicas < 1:
            raise ValueError(
                f"hash_replicas must be >= 1, got {self.hash_replicas}"
            )
        if not 0.0 <= self.hard_quantile <= 1.0:
            raise ValueError(
                f"hard_quantile must be in [0, 1], got {self.hard_quantile}"
            )
        if self.control is not None and not isinstance(
            self.control, ControlConfig
        ):
            raise TypeError(
                f"control must be a ControlConfig or None, got "
                f"{type(self.control).__name__}"
            )

    @property
    def n_shards(self) -> int:
        """Fleet size."""
        return len(self.shards)

    @classmethod
    def uniform(
        cls, n_shards: int, server: Optional[ServerConfig] = None, **changes
    ) -> "FleetConfig":
        """A fleet of ``n_shards`` identical shards.

        ``server`` defaults to ``ServerConfig()``; ``changes`` are
        fleet-level knobs (``router=``, ``queue_limit=``, ...).
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        shard = server if server is not None else ServerConfig()
        return cls(shards=(shard,) * n_shards, **changes)

    def replace(self, **changes) -> "FleetConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
