"""Control-loop experiment: a static fleet vs the same fleet, controlled.

The question the control plane exists to answer: when the diurnal
burst arrives, does closing the loop — SLO-driven replica scaling,
admission tightening, and degraded-quality mode (:mod:`repro.control`)
— actually hold the deadline SLO that an identically-provisioned
static fleet breaches, and at what quality cost?

:func:`run_control_comparison` serves one workload twice through the
same :class:`~repro.fleet.server.FleetServer` deployment — once with
``control=None`` (a static fleet: one epoch, no controller) and once
in controlled mode — and reports both rows side by side, plus the
controller's action counts and the detected overload episodes. Both
runs are deterministic for a fixed (workload, seed); the controlled
run's ``control_log.dumps()`` is byte-identical across reruns, which
``benchmarks/bench_control_loop.py`` asserts.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.control import ControlConfig
from repro.fleet.config import FleetConfig
from repro.fleet.server import FleetResult, FleetServer
from repro.obs.slo import SLOConfig
from repro.obs.tracer import Tracer
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.records import ServingResult
from repro.serving.server import WorkerSpec
from repro.serving.workload import ServingWorkload

__all__ = ["default_control_config", "run_control_comparison"]


def default_control_config(
    interval: float = 1.0,
    warmup: float = 2.0,
    max_extra_replicas: int = 4,
    cooldown: float = 5.0,
    seed: int = 0,
    alert_window: float = 10.0,
    miss_target: float = 0.05,
) -> ControlConfig:
    """A control config tuned for compressed-day traces.

    Real SLO practice watches burn over minutes-to-hours; the repo's
    traces compress a day into tens of simulated seconds, so the
    alert window and decision interval shrink to match. Breach at 2x
    burn with recovery hysteresis at 1x, scale up while burn stays at
    or above 2x, unwind below 0.5x.
    """
    return ControlConfig(
        interval=interval,
        warmup=warmup,
        max_extra_replicas=max_extra_replicas,
        scale_up_burn=2.0,
        scale_down_burn=0.5,
        cooldown=cooldown,
        seed=seed,
        slo=SLOConfig(
            miss_target=miss_target,
            windows=(alert_window, 6.0 * alert_window),
            alert_window=alert_window,
            breach_burn=2.0,
            recover_burn=1.0,
            min_events=20,
        ),
    )


def _row(
    result: ServingResult,
    quality: np.ndarray,
    shed_rate: float,
) -> Dict[str, float]:
    """One comparison row: quality, misses, tails, degradation."""
    stats = result.latency_stats()
    n = max(1, len(result.records))
    degraded = sum(
        1 for record in result.records if getattr(record, "degraded", False)
    )
    return {
        "accuracy": result.accuracy(quality),
        "dmr": result.deadline_miss_rate(),
        "p50": stats["p50"],
        "p95": stats["p95"],
        "p99": stats["p99"],
        "shed_rate": shed_rate,
        "degraded_rate": degraded / n,
        "scheduler_invocations": float(result.scheduler_invocations),
    }


def run_control_comparison(
    latencies: Sequence[float],
    policy: BufferedSchedulingPolicy,
    workload: ServingWorkload,
    quality: np.ndarray,
    n_shards: int = 4,
    queue_limit: int = 64,
    router: str = "power_of_two",
    control: Optional[ControlConfig] = None,
    server: Optional[ServerConfig] = None,
    workers: Optional[Sequence[WorkerSpec]] = None,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Tuple[Dict[str, Dict[str, float]], FleetResult]:
    """Serve one workload statically and under the control loop.

    Both fleets share the deployment, router, and admission knobs; the
    only difference is ``control``. Returns ``({"static": row,
    "controlled": row}, controlled_result)`` — the controlled row
    additionally carries the controller's action counts and the number
    of detected overload episodes, and the returned
    :class:`~repro.fleet.server.FleetResult` exposes ``control_log``
    and ``monitor`` for artifacts and determinism checks. ``tracer``
    (if given) observes the controlled run.
    """
    latencies = np.asarray(latencies, dtype=float)
    server = server if server is not None else ServerConfig()
    control = control if control is not None else default_control_config(
        seed=seed
    )

    def fleet_config(ctl: Optional[ControlConfig]) -> FleetConfig:
        return FleetConfig.uniform(
            n_shards,
            server,
            router=router,
            queue_limit=queue_limit,
            seed=seed,
            control=ctl,
        )

    static = FleetServer.from_config(
        latencies, policy, fleet_config(None), workers=workers
    ).run(workload)
    controlled = FleetServer.from_config(
        latencies, policy, fleet_config(control),
        workers=workers, tracer=tracer,
    ).run(workload)

    rows = {
        "static": _row(static.merged, quality, static.shed_rate()),
        "controlled": _row(
            controlled.merged, quality, controlled.shed_rate()
        ),
    }
    counts = controlled.control_log.counts()
    rows["controlled"].update({
        "scale_ups": float(counts.get("scale_up", 0)),
        "scale_downs": float(counts.get("scale_down", 0)),
        "degrades": float(counts.get("degrade", 0)),
        "restores": float(counts.get("restore", 0)),
        "admission_changes": float(counts.get("admission_change", 0)),
        "episodes": float(len(controlled.monitor.episodes)),
    })
    return rows, controlled
