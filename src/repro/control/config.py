"""Control-plane configuration: a frozen, validated bundle of knobs.

``ControlConfig`` follows the PR-2/PR-7 construction pattern one more
level up: frozen dataclass, all validation in ``__post_init__``,
copy-on-write via :meth:`ControlConfig.replace`. It rides on
:class:`~repro.fleet.config.FleetConfig` (``control=``) and therefore
threads through :class:`~repro.experiments.runner.RunSpec` and the
CLI (``python -m repro fleet --control``) without any new plumbing::

    fleet = FleetConfig.uniform(4, ServerConfig(),
                                control=ControlConfig(warmup=2.0))
    result = FleetServer.from_config(latencies, policy, fleet).run(wl)
    result.control_log.dumps()   # byte-identical across same-seed runs

The knobs split into three actuation groups the controller drives off
the live :class:`~repro.obs.slo.SLOMonitor` signal:

* **capacity** — ``warmup``/``max_extra_replicas``/``scale_up_burn``/
  ``scale_down_burn``/``cooldown``: replica sets added (serving after
  ``warmup`` seconds) while the alert-window burn rate is at or above
  ``scale_up_burn``, retired once it falls to ``scale_down_burn``;
* **admission** — ``tighten_factor``/``min_queue_limit``: the fleet
  ``queue_limit`` is multiplied by ``tighten_factor`` while a breach
  episode is open (shedding earlier protects served latency);
* **quality** — ``degrade_on_breach``/``cheap_mask``: every dispatched
  plan is clamped to the cheap subset while an episode is open, and
  full quality is restored on ``slo_recovered``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.slo import SLOConfig
from repro.utils.validation import check_positive

__all__ = ["ControlConfig"]


@dataclass(frozen=True)
class ControlConfig:
    """Every knob of the SLO-driven control loop.

    Attributes:
        interval: Controller decision period in simulated seconds; the
            fleet admits/advances in epochs of this length and the
            controller ticks once per epoch boundary.
        warmup: Provisioning latency: a replica set added at ``t``
            starts serving at ``t + warmup`` (its workers exist but
            are busy "warming" until then).
        max_extra_replicas: Fleet-wide cap on extra replica sets the
            controller may hold at once (0 disables scaling).
        scale_up_burn: Alert-window burn rate at or above which the
            controller adds capacity (subject to ``cooldown`` and the
            detector's ``min_events`` evidence guard).
        scale_down_burn: Burn rate at or below which — outside a breach
            episode — the newest replica set is retired.
        cooldown: Minimum simulated seconds between scaling actions,
            so warming capacity gets a chance to land before the
            controller piles on more.
        degrade_on_breach: Flip the fleet into cheap-subset mode while
            a breach episode is open (restored on recovery).
        cheap_mask: Ensemble subset (bitmask over base models) plans
            are clamped to in degraded mode; ``None`` means the single
            fastest model.
        tighten_factor: Multiplier applied to the fleet ``queue_limit``
            while an episode is open (1.0 disables admission
            tightening).
        min_queue_limit: Floor under the tightened queue limit.
        slo: The :class:`~repro.obs.slo.SLOConfig` the control plane's
            monitor runs with (alert window, burn thresholds,
            hysteresis).
        seed: Seeds the deterministic shard rotation scale-ups target;
            a fixed (trace, seed) pair replays to a byte-identical
            action log.
    """

    interval: float = 1.0
    warmup: float = 2.0
    max_extra_replicas: int = 4
    scale_up_burn: float = 1.0
    scale_down_burn: float = 0.25
    cooldown: float = 10.0
    degrade_on_breach: bool = True
    cheap_mask: Optional[int] = None
    tighten_factor: float = 0.5
    min_queue_limit: int = 1
    slo: SLOConfig = field(default_factory=SLOConfig)
    seed: int = 0

    def __post_init__(self):
        check_positive("interval", self.interval)
        if self.warmup < 0.0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.max_extra_replicas < 0:
            raise ValueError(
                f"max_extra_replicas must be >= 0, got "
                f"{self.max_extra_replicas}"
            )
        check_positive("scale_up_burn", self.scale_up_burn)
        if self.scale_down_burn < 0.0:
            raise ValueError(
                f"scale_down_burn must be >= 0, got {self.scale_down_burn}"
            )
        if self.scale_down_burn > self.scale_up_burn:
            raise ValueError(
                "scale_down_burn must be <= scale_up_burn (hysteresis)"
            )
        if self.cooldown < 0.0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.cheap_mask is not None and self.cheap_mask < 1:
            raise ValueError(
                f"cheap_mask must be a non-empty model bitmask, got "
                f"{self.cheap_mask}"
            )
        if not 0.0 < self.tighten_factor <= 1.0:
            raise ValueError(
                f"tighten_factor must be in (0, 1], got "
                f"{self.tighten_factor}"
            )
        if self.min_queue_limit < 1:
            raise ValueError(
                f"min_queue_limit must be >= 1, got {self.min_queue_limit}"
            )
        if not isinstance(self.slo, SLOConfig):
            raise TypeError(
                f"slo must be an SLOConfig, got {type(self.slo).__name__}"
            )

    def replace(self, **changes) -> "ControlConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def tightened_limit(self, queue_limit: int) -> int:
        """The admission limit in effect while an episode is open."""
        return max(
            self.min_queue_limit, int(queue_limit * self.tighten_factor)
        )
