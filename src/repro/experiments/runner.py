"""Workload construction and serving-run helpers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.data.traces import ArrivalTrace, camera_deadlines, constant_deadlines
from repro.experiments.setups import TaskSetup
from repro.fleet.config import FleetConfig
from repro.fleet.server import FleetResult, FleetServer
from repro.serving.config import ServerConfig
from repro.serving.records import ServingResult
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload
from repro.utils.rng import SeedLike, as_rng


def make_workload(
    setup: TaskSetup,
    trace: ArrivalTrace,
    deadline: float,
    deadline_spread: float = 0.0,
    sample_indices: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> ServingWorkload:
    """Attach deadlines and pool samples to an arrival trace.

    Vehicle counting uses per-camera random deadlines (the paper's
    location-priority setup) when ``deadline_spread > 0``; the other
    tasks use constant deadlines.
    """
    rng = as_rng(seed)
    n = len(trace)
    if sample_indices is None:
        sample_indices = rng.integers(len(setup.pool), size=n)
    else:
        sample_indices = np.asarray(sample_indices, dtype=int)
        if sample_indices.shape[0] != n:
            raise ValueError(
                f"sample_indices length {sample_indices.shape[0]} does not "
                f"match trace length {n}"
            )

    if deadline_spread > 0 and setup.task == "vehicle_counting":
        cameras = np.asarray(setup.pool.metadata["camera"])[sample_indices]
        deadlines = camera_deadlines(
            cameras,
            low=max(deadline - deadline_spread, 1e-3),
            high=deadline + deadline_spread,
            seed=rng,
        )
    elif deadline_spread > 0:
        deadlines = rng.uniform(
            max(deadline - deadline_spread, 1e-3),
            deadline + deadline_spread,
            size=n,
        )
    else:
        deadlines = constant_deadlines(n, deadline)

    return ServingWorkload(
        arrivals=trace.arrivals,
        deadlines=deadlines,
        sample_indices=sample_indices,
        quality=setup.quality,
    )


@dataclass(frozen=True)
class RunSpec:
    """A complete serving-run description, minus the task setup.

    Where :class:`~repro.serving.config.ServerConfig` captures server
    behaviour, ``RunSpec`` adds everything else a run needs — the policy
    to serve with and the workload shape — so experiments and CLI
    commands share one value instead of re-plumbing ``allow_rejection``
    / ``max_buffer`` / fault knobs through every signature.

    Attributes:
        policy: Key into ``setup.policies()`` (e.g. ``"schemble"``).
        config: Server configuration, including any fault plan — either
            a single-server :class:`ServerConfig` or a multi-replica
            :class:`~repro.fleet.config.FleetConfig`; with a fleet
            config, :func:`run_spec` serves the workload through a
            :class:`~repro.fleet.server.FleetServer` and returns its
            :class:`~repro.fleet.server.FleetResult`. Either way the
            config validates itself on construction — ``RunSpec`` only
            checks the type, so there is exactly one validation path
            per config class.
        deadline: Relative deadline in seconds; ``None`` picks the
            task's tightest grid deadline.
        deadline_spread: Half-width of per-query deadline jitter.
        duration: Simulated trace length in seconds.
        seed: Base seed; the trace uses ``seed`` and the workload
            attachment (samples, deadline jitter) uses ``seed + 1``.
        scheduler: Override the policy's scheduling algorithm: ``None``
            keeps whatever the task setup built (the DP for Schemble
            policies), ``"dp"`` forces a fresh exact
            :class:`~repro.scheduling.dp.DPScheduler` at the pipeline's
            δ, ``"learned"`` serves the distilled fast-path policy
            (:class:`~repro.scheduling.policy_fast.LearnedScheduler`)
            with a DP fallback at the same δ. Only buffered policies
            schedule, so an override on an immediate policy is an
            error.
        policy_model: Path to the ``PolicyModel`` artifact written by
            ``python -m repro distill`` (required with
            ``scheduler="learned"``).
        regret_threshold: Estimated utility gap at which the learned
            scheduler falls back to the exact DP; ``0`` means every
            invocation is exact DP (bit-identical to
            ``scheduler="dp"``).
    """

    policy: str = "schemble"
    config: Union[ServerConfig, FleetConfig] = field(
        default_factory=ServerConfig
    )
    deadline: Optional[float] = None
    deadline_spread: float = 0.0
    duration: float = 30.0
    seed: int = 0
    scheduler: Optional[str] = None
    policy_model: Optional[str] = None
    regret_threshold: float = 0.5

    def __post_init__(self):
        if not isinstance(self.config, (ServerConfig, FleetConfig)):
            raise TypeError(
                f"config must be a ServerConfig or FleetConfig, got "
                f"{type(self.config).__name__}"
            )
        if self.scheduler not in (None, "dp", "learned"):
            raise ValueError(
                f"scheduler must be None, 'dp' or 'learned', got "
                f"{self.scheduler!r}"
            )
        if self.scheduler == "learned" and self.policy_model is None:
            raise ValueError(
                "scheduler='learned' requires policy_model (the artifact "
                "written by `python -m repro distill`)"
            )

    def replace(self, **changes) -> "RunSpec":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


def resolve_policy(setup: TaskSetup, spec: RunSpec):
    """The serving policy a spec asks for, scheduler override applied.

    With ``spec.scheduler`` set, the setup's policy is cloned around a
    freshly built scheduler (``with_scheduler``), so the cached setup's
    own policy objects are never mutated.
    """
    policy = setup.policies()[spec.policy]
    if spec.scheduler is None:
        return policy
    from repro.serving.policies import BufferedSchedulingPolicy

    if not isinstance(policy, BufferedSchedulingPolicy):
        raise ValueError(
            f"policy {spec.policy!r} does not run a scheduler; "
            f"scheduler={spec.scheduler!r} only applies to buffered "
            f"policies"
        )
    from repro.scheduling.dp import DPScheduler

    exact = DPScheduler(delta=setup.schemble.delta)
    if spec.scheduler == "dp":
        return policy.with_scheduler(exact)
    from repro.scheduling.policy_fast import LearnedScheduler, PolicyModel

    scheduler = LearnedScheduler(
        PolicyModel.load(spec.policy_model),
        regret_threshold=spec.regret_threshold,
        fallback=exact,
    )
    return policy.with_scheduler(scheduler)


def run_spec(
    setup: TaskSetup,
    spec: RunSpec,
    trace: Optional[ArrivalTrace] = None,
    tracer=None,
    explain=None,
) -> Union[ServingResult, FleetResult]:
    """Run one :class:`RunSpec` on ``setup`` and return its result.

    Builds the task's bursty day trace when ``trace`` is not supplied,
    attaches deadlines/samples with ``make_workload``, and serves with
    the spec's policy under the spec's config: a
    :class:`ServerConfig` runs one :class:`EnsembleServer`, a
    :class:`~repro.fleet.config.FleetConfig` runs a
    :class:`~repro.fleet.server.FleetServer` (returning its
    :class:`~repro.fleet.server.FleetResult`). Pass a
    :class:`~repro.obs.explain.DecisionLog` as ``explain`` to capture
    per-query scheduler decision records (single-server runs only).
    """
    # Local import: trace_segments itself builds on this module.
    from repro.experiments.trace_segments import make_day_trace

    if trace is None:
        trace = make_day_trace(setup, duration=spec.duration, seed=spec.seed)
    deadline = (
        spec.deadline if spec.deadline is not None
        else min(setup.deadline_grid)
    )
    workload = make_workload(
        setup,
        trace,
        deadline=deadline,
        deadline_spread=spec.deadline_spread,
        seed=spec.seed + 1,
    )
    policy = resolve_policy(setup, spec)
    if isinstance(spec.config, FleetConfig):
        if explain is not None:
            raise ValueError(
                "decision explainability is per-shard; fleet runs do "
                "not support explain="
            )
        fleet = FleetServer.from_config(
            setup.latencies,
            policy,
            spec.config,
            workers=setup.workers_for(spec.policy),
            tracer=tracer,
        )
        return fleet.run(workload)
    return run_policy(
        setup,
        policy,
        workload,
        policy_name=spec.policy,
        config=spec.config,
        tracer=tracer,
        explain=explain,
    )


def run_policy(
    setup: TaskSetup,
    policy,
    workload: ServingWorkload,
    policy_name: Optional[str] = None,
    *,
    config: Optional[ServerConfig] = None,
    tracer=None,
    explain=None,
) -> ServingResult:
    """Serve ``workload`` with ``policy`` on the task's deployment.

    Server behaviour (buffering, rejection, fault injection, timeouts)
    comes from ``config``.

    Pass a :class:`~repro.obs.tracer.RecordingTracer` as ``tracer`` to
    collect the run's span stream and metrics, and/or a
    :class:`~repro.obs.explain.DecisionLog` as ``explain`` to capture
    per-query scheduler decision records (the default NullTracer keeps
    the run untouched).
    """
    if config is None:
        config = ServerConfig()
    name = policy_name or policy.name
    server = EnsembleServer.from_config(
        setup.latencies,
        policy,
        config,
        workers=setup.workers_for(name),
        tracer=tracer,
        explain=explain,
    )
    return server.run(workload)


def summarize(result: ServingResult, setup: TaskSetup) -> Dict[str, float]:
    """Standard per-run metrics (the columns of Tables I and II).

    Scheduler cost comes straight off the run: the server measures the
    real wall-clock of every ``schedule()`` call (perf_counter), so no
    consumer needs to re-clock the scheduler.
    """
    stats = result.latency_stats()
    slack = result.deadline_slack()
    return {
        "accuracy": result.accuracy(setup.quality),
        "processed_accuracy": result.processed_accuracy(setup.quality),
        "dmr": result.deadline_miss_rate(),
        "latency_mean": stats["mean"],
        "latency_p50": stats["p50"],
        "latency_p95": stats["p95"],
        "latency_p99": stats["p99"],
        "latency_max": stats["max"],
        "slack_mean": float(slack.mean()) if slack.size else float("nan"),
        "scheduler_invocations": float(result.scheduler_invocations),
        "scheduler_wall_time": result.scheduler_wall_time,
        "degraded_rate": result.degraded_rate(),
        "retries": float(result.total_retries()),
    }
