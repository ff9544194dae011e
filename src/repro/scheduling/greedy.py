"""Greedy scheduling baselines (Exp-4).

Processes queries in a chosen order (EDF/FIFO/SJF) and, for each query,
picks the feasible subset with the highest reward — ignoring the queries
still behind it, which is exactly the myopia the DP algorithm fixes.

The selection is fully deterministic: highest reward within ``_EPS``
of the best, then earliest completion within ``_EPS`` of the fastest
such subset, then lowest mask. A mask's completion is the latest of
``times[k] + latencies[k]`` over its members ``k``, the same float sums
the DP's loop form adds.

The search is one plain-Python loop over the masks. It once had a numpy
form vectorised over the mask grid, which is now the oracle of
``tests/scheduling/test_greedy.py``: the two agree on decisions, total
utility and work units. The numpy form is faster only from about seven
models on, and no caller runs Greedy on more than three (the fleet and
the Exp-4 ablation), so the loop form is the only one. Microseconds
per call, numpy / loop, five instances per point, fastest of seven
timings (2-vCPU x86-64 host, CPython 3.11):

======  =========  ==========  ===========
models  1 query    8 queries   32 queries
======  =========  ==========  ===========
3       35 / 10    240 / 45    981 / 155
5       41 / 25    276 / 131   1001 / 483
6       45 / 43    309 / 262   1074 / 824
7       50 / 81    360 / 492   1439 / 1950
======  =========  ==========  ===========
"""

from __future__ import annotations

from repro.scheduling.orders import ORDERS
from repro.scheduling.problem import (
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)

_EPS = 1e-12


class GreedyScheduler:
    """Greedy subset choice under a fixed execution order.

    Args:
        order: ``"edf"``, ``"fifo"`` or ``"sjf"``.
    """

    def __init__(self, order: str = "edf"):
        if order not in ORDERS:
            raise ValueError(
                f"unknown order {order!r}; choose from {sorted(ORDERS)}"
            )
        self.order = order
        self.name = f"greedy+{order}"

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Pick the highest-reward feasible subset per query in order."""
        queries = instance.queries
        members = instance.masks.members
        n_masks = len(members)
        # Python floats hold the numpy values' bits.
        latencies = instance.latencies.tolist()
        times = instance.busy_until.tolist()
        now = instance.now

        decisions = []
        total = 0.0
        for i in ORDERS[self.order](queries):
            query = queries[i]
            limit = query.deadline - now + _EPS
            rewards = query.utilities.tolist()
            finish = [t + latency for t, latency in zip(times, latencies)]
            eligible = []
            top = 0.0
            for mask in range(1, n_masks):
                reward = rewards[mask]
                if not reward > _EPS:
                    continue
                completion = 0.0
                for k in members[mask]:
                    if finish[k] > completion:
                        completion = finish[k]
                if completion <= limit:
                    eligible.append((mask, reward, completion))
                    if reward > top:
                        top = reward
            best_mask = 0
            if eligible:
                floor = top - _EPS
                cutoff = min(c for _, r, c in eligible if r >= floor) + _EPS
                for mask, reward, completion in eligible:
                    if reward >= floor and completion <= cutoff:
                        best_mask = mask
                        break
                for k in members[best_mask]:
                    times[k] = finish[k]
                total += rewards[best_mask]
            decisions.append(
                ScheduleDecision(query_id=query.query_id, mask=best_mask)
            )
        # Unified accounting: one unit per non-empty subset evaluated.
        return ScheduleResult(
            decisions=decisions,
            total_utility=total,
            work_units=len(queries) * (n_masks - 1),
        )
