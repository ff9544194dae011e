"""Server configuration object (the stable construction surface).

``EnsembleServer`` used to grow one positional argument per knob;
:class:`ServerConfig` replaces that with a frozen, validated dataclass
so fault plans, retry policy and future knobs compose without
signature churn. Construct once, share freely (it is immutable), and
derive variants with :meth:`ServerConfig.replace`::

    config = ServerConfig(max_buffer=32, faults=FaultPlan(seed=7,
                          task_failure_rate=0.05))
    server = EnsembleServer.from_config(latencies, policy, config)
    drop = config.replace(degraded_answers=False)

All validation lives here; the server trusts a ``ServerConfig``
completely.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ServerConfig:
    """Every serving-loop knob of :class:`EnsembleServer`.

    Attributes:
        allow_rejection: Skip queries whose estimated completion exceeds
            their deadline (the paper's Exp-1 setting). When False every
            query is processed (Exp-2 / Table II).
        max_buffer: Largest buffer slice handed to the scheduler at once.
        overhead_base: Fixed per-invocation scheduling delay (seconds).
        overhead_per_unit: Scheduling delay per scheduler work unit.
        faults: Fault plan to inject. ``None`` or a null plan draws
            nothing and schedules no fault events, so the run computes
            exactly the reliable model's numbers.
        task_timeout: Per-task watchdog (seconds). A task still running
            ``task_timeout`` after its start is abandoned (the
            non-preemptive worker keeps grinding, but the server stops
            waiting) and handled like a failure: retried or degraded.
            ``None`` disables the watchdog.
        max_retries: Retry budget per task. A failed or timed-out task
            is re-dispatched onto the least-loaded live worker for its
            model (same or sibling) at most this many times.
        retry_backoff: Delay (seconds) before each retry dispatch.
        degraded_answers: Answer a query whose tasks partially failed
            from the executed subset (KNN filling + stacking make the
            partial answer honest) instead of dropping it. With False,
            any permanently failed task drops the whole query
            (drop-on-failure — the resilience study's baseline).
    """

    allow_rejection: bool = True
    max_buffer: int = 16
    overhead_base: float = 2e-4
    overhead_per_unit: float = 2e-8
    faults: Optional[FaultPlan] = None
    task_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.0
    degraded_answers: bool = True

    def __post_init__(self):
        if self.max_buffer < 1:
            raise ValueError(
                f"max_buffer must be >= 1, got {self.max_buffer}"
            )
        check_positive("overhead_base", self.overhead_base, allow_zero=True)
        check_positive(
            "overhead_per_unit", self.overhead_per_unit, allow_zero=True
        )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__}"
            )
        if self.task_timeout is not None:
            check_positive("task_timeout", self.task_timeout)
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_positive("retry_backoff", self.retry_backoff, allow_zero=True)

    def replace(self, **changes) -> "ServerConfig":
        """A validated copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
