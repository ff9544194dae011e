"""Fleet-serving experiment: routers and the control loop vs one big server.

Two questions the multi-replica fleet exists to answer, on one shared
workload:

* Given the same total worker capacity, is it better to run one big
  :class:`~repro.serving.server.EnsembleServer` (one buffer, one
  scheduler) or N shards behind a difficulty-aware front end? The
  single big server's weakness is structural, not capacity: its
  scheduler invocations are serialized (``scheduling_busy``) and each
  one charges overhead proportional to the buffer it plans, so under a
  diurnal burst the lone scheduler becomes the bottleneck while
  workers idle. Sharding multiplies the schedulers along with the
  workers; the router's job is to keep the shards balanced enough
  that the split costs no quality.
* When the burst arrives, does closing the loop — SLO-driven replica
  scaling, admission tightening, and degraded-quality mode
  (:mod:`repro.control`) — hold the deadline SLO that an
  identically-provisioned static fleet breaches, and at what quality
  cost?

:func:`run_fleet_comparison` measures both: the single server, every
registered router, and (given a control config) the controlled fleet,
side by side. Every run is deterministic for a fixed (workload, seed);
the controlled run's ``control_log.dumps()`` is byte-identical across
reruns, which ``benchmarks/bench_fleet.py`` asserts.

The synthetic setup here builds the quality/score tables directly
(difficulty-graded per-model success probabilities, noisy difficulty
scores) instead of training real models, so million-query traces are
cheap to drive — the serving side is identical to the trained tasks.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.control import ControlConfig
from repro.data.traces import diurnal_trace
from repro.fleet.config import FleetConfig
from repro.fleet.routers import ROUTERS
from repro.fleet.server import FleetResult, FleetServer
from repro.obs.slo import SLOConfig
from repro.obs.tracer import Tracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.records import ServingResult
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload
from repro.utils.rng import SeedLike, as_rng

#: Base-model inference times of the synthetic fleet task (seconds).
FLEET_LATENCIES = (0.004, 0.009, 0.018)


def synthetic_fleet_setup(
    n_pool: int = 512, seed: SeedLike = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(latencies, quality, scores)`` of the synthetic fleet task.

    Each pool sample gets a latent difficulty ``d ~ U(0, 1)``; model
    ``k``'s per-sample success probability falls with difficulty from
    its base accuracy, and a subset's quality is the probability at
    least one member succeeds (monotone in the mask, 0 for the empty
    subset). Scores are the true difficulties plus noise — the same
    imperfect-predictor shape the trained tasks produce.
    """
    rng = as_rng(seed)
    latencies = np.asarray(FLEET_LATENCIES, dtype=float)
    m = latencies.shape[0]
    base_accuracy = np.linspace(0.72, 0.9, m)
    difficulty = rng.uniform(0.0, 1.0, n_pool)
    success = np.clip(
        base_accuracy[None, :]
        - 0.5 * difficulty[:, None]
        + rng.normal(0.0, 0.05, (n_pool, m)),
        0.05,
        0.98,
    )
    quality = np.zeros((n_pool, 2 ** m))
    for mask in range(1, 2 ** m):
        members = [k for k in range(m) if (mask >> k) & 1]
        quality[:, mask] = 1.0 - np.prod(1.0 - success[:, members], axis=1)
    scores = np.clip(difficulty + rng.normal(0.0, 0.05, n_pool), 0.0, 1.0)
    return latencies, quality, scores


def make_fleet_policy(
    quality: np.ndarray, scores: np.ndarray
) -> BufferedSchedulingPolicy:
    """The buffered policy every fleet experiment serves with.

    Greedy-EDF keeps scheduler invocations cheap enough that
    million-query traces run in seconds while still exercising the
    full buffered path (buffering, overhead, rejection); the fast
    path keeps idle valleys realistic.
    """
    return BufferedSchedulingPolicy(
        "schemble",
        GreedyScheduler(order="edf"),
        quality,
        scores=scores,
        fast_path=True,
    )


def fleet_workload(
    quality: np.ndarray,
    base_rate: float,
    duration: float,
    deadline: float = 0.06,
    seed: SeedLike = 0,
) -> ServingWorkload:
    """A diurnal workload over the synthetic pool (one compressed day)."""
    rng = as_rng(seed)
    trace = diurnal_trace(base_rate, duration, seed=rng)
    n = len(trace)
    return ServingWorkload(
        arrivals=trace.arrivals,
        deadlines=np.full(n, float(deadline)),
        sample_indices=rng.integers(quality.shape[0], size=n),
        quality=quality,
    )


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


def fleet_config(
    n_shards: int,
    queue_limit: int,
    router: str,
    seed: int,
    control: Optional[ControlConfig] = None,
) -> FleetConfig:
    """The fleet every comparison serves: ``n_shards`` default shards.

    Each shard runs ``ServerConfig()``; ``control`` set makes the fleet
    a controlled one.
    """
    return FleetConfig.uniform(
        n_shards,
        ServerConfig(),
        router=router,
        queue_limit=queue_limit,
        seed=seed,
        control=control,
    )


def _row(
    result: ServingResult, quality: np.ndarray, shed_rate: float = 0.0
) -> Dict[str, float]:
    """One comparison row: quality, misses, tails, refusals, degradation."""
    stats = result.latency_stats()
    return {
        "accuracy": result.accuracy(quality),
        "dmr": result.deadline_miss_rate(),
        "p50": stats["p50"],
        "p95": stats["p95"],
        "p99": stats["p99"],
        "rejected": float(result.n_rejected()),
        "shed_rate": shed_rate,
        "degraded_rate": result.degraded_rate(),
        "scheduler_invocations": float(result.scheduler_invocations),
    }


def run_fleet_comparison(
    latencies: Sequence[float],
    policy: BufferedSchedulingPolicy,
    workload: ServingWorkload,
    quality: np.ndarray,
    n_shards: int = 4,
    queue_limit: int = 64,
    router: str = "power_of_two",
    control: Optional[ControlConfig] = None,
    workers: Optional[Sequence[WorkerSpec]] = None,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Tuple[Dict[str, Dict[str, float]], FleetResult]:
    """Serve one workload on a single big server, every router, and
    (with ``control``) the controlled ``router`` fleet.

    The single server gets ``n_shards`` replicas of the (per-shard)
    deployment — equal total capacity, one buffer, one scheduler —
    so the comparison isolates the fleet's structural effect from
    raw capacity. Every fleet shares the deployment, admission knobs
    and seed; the controlled one differs from the static ``router``
    fleet only in ``control``.

    The observed fleet is the ``router`` fleet: the controlled run
    when ``control`` is set, else the static one. It alone carries
    ``tracer`` and runs first, so a live endpoint sees data at once.

    Returns ``(rows, observed)``: ``rows`` is ``{"single": row,
    "<router>": row, ..., "controlled": row}`` (one static row per
    registered router; ``controlled`` only with ``control``; see
    :func:`_row` for the columns), and ``observed`` is the observed
    run's :class:`~repro.fleet.server.FleetResult`. The controlled row
    also carries the controller's action counts and the number of
    detected overload episodes; ``observed.control_log`` and
    ``observed.monitor`` serve artifacts and determinism checks.
    """
    latencies = np.asarray(latencies, dtype=float)

    def serve(name: str, ctl: Optional[ControlConfig] = None,
              observer: Optional[Tracer] = None) -> FleetResult:
        return FleetServer.from_config(
            latencies,
            policy,
            fleet_config(n_shards, queue_limit, name, seed, ctl),
            workers=workers,
            tracer=observer,
        ).run(workload)

    observed = serve(router, control, tracer)
    per_shard = (
        list(workers)
        if workers is not None
        else [
            WorkerSpec(model_index=k, latency=float(t))
            for k, t in enumerate(latencies)
        ]
    )
    single_workers = [
        WorkerSpec(model_index=spec.model_index, latency=spec.latency)
        for _ in range(n_shards)
        for spec in per_shard
    ]
    single = EnsembleServer.from_config(
        latencies, policy, ServerConfig(), workers=single_workers
    ).run(workload)
    rows = {"single": _row(single, quality)}
    for name in ROUTERS:
        result = (
            observed if control is None and name == router else serve(name)
        )
        rows[name] = _row(result.merged, quality, result.shed_rate())
    if control is not None:
        counts = observed.control_log.counts()
        rows["controlled"] = _row(
            observed.merged, quality, observed.shed_rate()
        )
        rows["controlled"].update({
            "scale_ups": float(counts.get("scale_up", 0)),
            "scale_downs": float(counts.get("scale_down", 0)),
            "degrades": float(counts.get("degrade", 0)),
            "restores": float(counts.get("restore", 0)),
            "admission_changes": float(counts.get("admission_change", 0)),
            "episodes": float(len(observed.monitor.episodes)),
        })
    return rows, observed
