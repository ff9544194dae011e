"""Scheduling problem types (Section VI-A).

A scheduler sees the queries currently waiting in the buffer, each with
an absolute deadline and a per-subset utility row (from the accuracy
profiler), plus the per-model inference times and each model's remaining
busy time. It returns a subset mask per query and the processing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.scheduling.subsets import MaskTables, mask_tables


@dataclass
class QueryRequest:
    """One pending query in the scheduling buffer.

    Attributes:
        query_id: Stable identifier (index into the serving run).
        arrival: Absolute arrival time (seconds).
        deadline: Absolute completion deadline (seconds).
        utilities: Reward per subset mask, shape ``(2**m,)``; entry 0
            (empty subset) must be 0.
        score: Estimated discrepancy score (used by SJF ordering).
        sample_index: Pool sample this query replays (serving detail).
    """

    query_id: int
    arrival: float
    deadline: float
    utilities: np.ndarray
    score: float = 0.0
    sample_index: int = -1
    _quantised: Dict[float, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        self.utilities = np.asarray(self.utilities, dtype=float)
        if self.utilities.ndim != 1:
            raise ValueError(
                f"utilities must be 1-d, got shape {self.utilities.shape}"
            )
        if self.deadline < self.arrival:
            raise ValueError(
                f"deadline {self.deadline} precedes arrival {self.arrival}"
            )
        if abs(float(self.utilities[0])) > 1e-9:
            raise ValueError("utility of the empty subset must be 0")

    def check_width(self, n_masks: int) -> None:
        """Raise unless the utility row has one entry per subset mask."""
        width = self.utilities.shape[0]
        if width != n_masks:
            raise ValueError(
                f"query {self.query_id} has {width} utilities, "
                f"expected {n_masks}"
            )

    def quantised_utilities(self, step: float) -> np.ndarray:
        """``floor(utilities / step)`` memoised per step.

        A buffered policy re-plans the same queries many times while they
        wait (every idle tick re-floors the same reward rows); the cache
        lives on the request so overlapping buffers pay once per query,
        not once per ``schedule()`` call. The returned array is shared —
        callers must not mutate it.
        """
        key = float(step)
        cached = self._quantised.get(key)
        if cached is None:
            cached = np.floor(self.utilities / key).astype(np.int64)
            self._quantised[key] = cached
        return cached


@dataclass
class ScheduleDecision:
    """Chosen subset for one query; ``mask == 0`` rejects the query."""

    query_id: int
    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError(f"mask must be non-negative, got {self.mask}")


@dataclass
class ScheduleResult:
    """Scheduler output: decisions in processing order plus run stats.

    ``work_units`` measures how much work the scheduler did; the serving
    simulator converts it into scheduling overhead time
    (``overhead_base + overhead_per_unit * work_units``) so that very
    small δ (huge DP tables) pays its cost, as in Exp-4/Fig. 21.

    **Unified accounting rule** (shared by every scheduler so the same
    plan is charged the same overhead regardless of policy): one work
    unit is one *non-empty* candidate subset evaluated for
    feasibility/reward against one partial plan.

    * Greedy evaluates ``2**m - 1`` subsets per query.
    * The DP evaluates ``2**m - 1`` subsets per Pareto-frontier entry
      per table cell per query. The ``mask == 0`` (skip) continuation is
      free — it performs no feasibility work, exactly like greedy's
      implicit "reject" default.
    * Brute force charges each non-empty mask appearing in each
      enumerated assignment.

    (Historically the DP also charged the skip continuation, so DP-based
    policies paid ``2**m / (2**m - 1)``× more simulated overhead than
    greedy for identical candidate evaluations.)
    """

    decisions: List[ScheduleDecision]
    total_utility: float = 0.0
    work_units: int = 0

    def mask_for(self, query_id: int) -> int:
        for decision in self.decisions:
            if decision.query_id == query_id:
                return decision.mask
        raise KeyError(f"no decision for query {query_id}")


@dataclass
class SchedulingInstance:
    """A local scheduling subproblem (the buffer at one moment).

    Attributes:
        queries: Pending queries (any order; schedulers sort internally).
        latencies: Per-model inference times ``T_k``.
        busy_until: Per-model remaining execution time ``t_k^(0)``
            measured from ``now`` (0 for idle models). Under fault
            injection this is an *estimate* that may shrink between
            invocations (a crash revokes commitments; a crashed worker
            counts as busy until it recovers). It is ``inf`` for a
            model no deployed worker serves — schedulers must treat an
            ``inf`` entry as "no feasible subset uses this model",
            never as an error.
        now: Current absolute time.

    The constructor coerces the arrays and checks every field, so an
    instance built from outside input is valid or raises. The serving
    loop builds one instance per scheduling round, most of them for a
    single query, and there those checks cost as much as the scheduler
    itself; it calls :meth:`trusted` instead, which only fills the
    fields. No other caller should.
    """

    queries: List[QueryRequest]
    latencies: np.ndarray
    busy_until: np.ndarray
    now: float = 0.0

    def __post_init__(self):
        self.latencies = np.asarray(self.latencies, dtype=float)
        self.busy_until = np.asarray(self.busy_until, dtype=float)
        if self.latencies.ndim != 1 or self.latencies.size == 0:
            raise ValueError("latencies must be a non-empty 1-d array")
        if np.any(self.latencies <= 0):
            raise ValueError("latencies must be positive")
        if not np.all(np.isfinite(self.latencies)):
            raise ValueError("latencies must be finite")
        if self.busy_until.shape != self.latencies.shape:
            raise ValueError(
                f"busy_until shape {self.busy_until.shape} must match "
                f"latencies shape {self.latencies.shape}"
            )
        if np.any(np.isnan(self.busy_until)):
            raise ValueError("busy_until entries must not be NaN")
        if np.any(self.busy_until < 0):
            raise ValueError("busy_until entries must be non-negative")
        n_masks = 1 << self.n_models
        for query in self.queries:
            query.check_width(n_masks)

    @classmethod
    def trusted(
        cls,
        queries: List[QueryRequest],
        latencies: np.ndarray,
        busy_until: np.ndarray,
        now: float,
    ) -> "SchedulingInstance":
        """An instance whose fields are taken as given, unchecked.

        For the serving loop alone, which guarantees what the
        constructor would check: ``latencies`` is the float array its
        server validated when it was built; ``busy_until`` is a float
        array of that shape, clamped at 0, never NaN, ``inf`` for a
        model no worker serves; every query passed
        :meth:`QueryRequest.check_width` for ``2**len(latencies)`` masks
        when its request was built.
        """
        instance = cls.__new__(cls)
        instance.queries = queries
        instance.latencies = latencies
        instance.busy_until = busy_until
        instance.now = now
        return instance

    @property
    def n_models(self) -> int:
        return int(self.latencies.shape[0])

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def masks(self) -> MaskTables:
        """Shared per-mask member tables (cached per ensemble size)."""
        return mask_tables(self.n_models)

    @property
    def mask_membership(self) -> np.ndarray:
        """Bool incidence matrix ``(2**m, m)``: mask j contains model k."""
        return self.masks.membership

    def quantised_utilities(self, step: float) -> np.ndarray:
        """Stacked ``floor(utilities / step)`` rows, shape
        ``(n_queries, 2**m)``, in ``self.queries`` order. Rows come from
        each request's memoised :meth:`QueryRequest.quantised_utilities`,
        so queries that survive across buffer ticks are floored once."""
        if not self.queries:
            return np.zeros((0, 1 << self.n_models), dtype=np.int64)
        return np.stack(
            [q.quantised_utilities(step) for q in self.queries]
        )


def evaluate_schedule(
    instance: SchedulingInstance,
    decisions: Sequence[ScheduleDecision],
    order: Optional[Sequence[int]] = None,
) -> float:
    """Total reward of a schedule under the consistent-order execution
    model: queries are processed in ``decisions`` order (or ``order`` as
    indices into ``decisions``), each model runs its assigned tasks in
    that order, and a query earns its utility iff its completion time
    (max over assigned models) meets the deadline.

    Queries whose deadline is missed earn 0 (they are still executed —
    this evaluator is for comparing schedulers, and feasible schedulers
    never submit a missing query).
    """
    by_id = {q.query_id: q for q in instance.queries}
    times = instance.busy_until.copy()
    sequence = list(decisions) if order is None else [decisions[i] for i in order]
    total = 0.0
    for decision in sequence:
        query = by_id[decision.query_id]
        mask = decision.mask
        if mask == 0:
            continue
        completion = 0.0
        for k in range(instance.n_models):
            if (mask >> k) & 1:
                times[k] += instance.latencies[k]
                completion = max(completion, times[k])
        if instance.now + completion <= query.deadline + 1e-12:
            total += float(query.utilities[mask])
    return total
