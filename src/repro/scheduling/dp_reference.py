"""Algorithm 1 as written: the readable reference for the exact DP.

:class:`~repro.scheduling.dp.DPScheduler` serves Algorithm 1 in two
bit-exact forms tuned for speed (see ``dp.py``): a loop form that
prices each frontier entry once and walks only the masks it can run,
and a numpy kernel. This module keeps the algorithm in its plainest
form: each frontier entry is extended by every non-empty mask, each
extension is checked against the deadline on its own, and each cell's
candidates are sorted and pruned with the canonical key spelled out.
:class:`DPReferenceScheduler` runs it at every buffer size.

It is the oracle both served forms are checked against
(``tests/scheduling/test_dp_vectorized.py``) and the denominator of
``benchmarks/bench_sched_throughput.py``'s speedup gates. As a
scheduler it gives the same plans as ``DPScheduler``, more slowly
(``BENCH_sched.json``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.scheduling.dp import _EPS, DPScheduler, ScheduleStats, _pick_plan
from repro.scheduling.orders import edf_order
from repro.scheduling.problem import ScheduleResult, SchedulingInstance

# A loop-form table cell holds canonically ordered Pareto-minimal
# (finish_times, plan) pairs; candidates also carry the
# (parent_rank, mask) tie-break keys.
_Solution = Tuple[Tuple[float, ...], Tuple[int, ...]]
_Candidate = Tuple[Tuple[float, ...], Tuple[int, ...], int, int]


def _prune(candidates: List[_Candidate], cap: int) -> List[_Solution]:
    """Canonical order + dominance prune + frontier cap, for one cell.

    Vector A dominates B when A is componentwise <= B (+eps): any
    continuation feasible from B is feasible from A at equal reward.
    Sorting by (sum, times, parent_rank, mask) first means a kept
    vector can only be dominated by an earlier kept one, so a single
    forward pass suffices; the cap keeps the first ``cap`` survivors.
    """
    if len(candidates) == 1:
        # Most cells of a small buffer hold one candidate: its own
        # frontier, with nothing to sort or compare.
        times, plan, _, _ = candidates[0]
        return [(times, plan)]
    candidates = sorted(
        candidates, key=lambda s: (sum(s[0]), s[0], s[2], s[3])
    )
    kept: List[_Solution] = []
    for times, plan, _, _ in candidates:
        dominated = False
        for kept_times, _ in kept:
            if all(kt <= t + _EPS for kt, t in zip(kept_times, times)):
                dominated = True
                break
        if not dominated:
            kept.append((times, plan))
            if len(kept) == cap:
                break
    return kept


def _loop_form(
    instance: SchedulingInstance,
    step: float,
    cap: int,
    stats: Optional[ScheduleStats],
    phases: Optional[Dict[str, float]],
) -> ScheduleResult:
    """Algorithm 1 cell by cell and candidate by candidate."""
    profile = phases is not None
    if profile:
        t_mark = time.perf_counter()
    order = edf_order(instance.queries)
    queries = [instance.queries[i] for i in order]
    # Python floats hold the numpy values' bits and add several times
    # faster than numpy scalars.
    latencies = instance.latencies.tolist()
    n_masks = 1 << instance.n_models
    member_lists = instance.masks.members
    table: Dict[int, List[_Solution]] = {
        0: [(tuple(instance.busy_until.tolist()), ())]
    }
    if profile:
        phases["mask_tables"] = time.perf_counter() - t_mark

    work_units = 0
    for query in queries:
        if profile:
            t_mark = time.perf_counter()
        limit = query.deadline - instance.now + _EPS
        quantised = query.quantised_utilities(step).tolist()
        candidates: Dict[int, List[_Candidate]] = {}
        # Entries are ranked by their position in the table flattened
        # in ascending-cell order: the kernel's flat row index.
        rank = 0
        for u in sorted(table):
            for times, plan in table[u]:
                # The skip continuation is free; every non-empty mask
                # below is one work unit (unified accounting).
                work_units += n_masks - 1
                candidates.setdefault(u, []).append(
                    (times, plan + (0,), rank, 0)
                )
                for mask in range(1, n_masks):
                    new_times = list(times)
                    completion = 0.0
                    for k in member_lists[mask]:
                        new_times[k] += latencies[k]
                        if new_times[k] > completion:
                            completion = new_times[k]
                    if completion > limit:
                        continue
                    candidates.setdefault(u + quantised[mask], []).append(
                        (tuple(new_times), plan + (mask,), rank, mask)
                    )
                rank += 1
        if profile:
            t_prune = time.perf_counter()
            phases["extend"] += t_prune - t_mark
        table = {u: _prune(cell, cap) for u, cell in candidates.items()}
        if profile:
            phases["prune"] += time.perf_counter() - t_prune
        if stats is not None:
            stats.candidate_masks.append(sorted({
                c[3] for cell in candidates.values() for c in cell
            }))
            stats.frontier_sizes.append(sum(map(len, table.values())))

    if profile:
        t_mark = time.perf_counter()
    result = _pick_plan(
        queries,
        ((plan, sum(times)) for times, plan in table[max(table)]),
        work_units,
    )
    if profile:
        phases["backtrack"] = time.perf_counter() - t_mark
    if stats is not None:
        stats.n_cells = len(table)
    return result


class DPReferenceScheduler(DPScheduler):
    """:class:`~repro.scheduling.dp.DPScheduler` running Algorithm 1 as
    written, at every buffer size.

    Same constructor, hooks (``collect_stats``, ``profile``) and output
    as ``DPScheduler``.
    """

    name = "dp-reference"

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Solve the local subproblem with the reference form; decisions
        come back in EDF order."""
        return self._solve(instance, _loop_form)
