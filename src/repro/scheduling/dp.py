"""Dynamic-programming scheduling (Algorithm 1, Section VI-B).

Queries in the buffer are indexed in EDF order (Theorem 2). The DP table
is keyed by quantised cumulative reward; each cell keeps the Pareto
frontier of per-model finish-time vectors achieving exactly that reward.
Quantising rewards to multiples of δ bounds the table size; Theorem 3
shows the result is a (1 − ε) approximation of the optimal local plan
for δ = ε/N.

The DP comes in two forms behind one entry point,
:meth:`DPScheduler.schedule`, which picks the form from the instance's
size ``n_queries * 2**n_models`` (see :data:`LOOP_FORM_MAX_SIZE`).
Both price each frontier entry once: they add the latencies to the
entry's finish times once (``bumped``), mark the models whose bumped
time meets the query's deadline, and extend the entry only by masks
of those models. A mask is feasible exactly when each of its members
is, so no infeasible candidate is ever built.

* The **loop form** walks the table cell by cell in plain Python,
  carrying each entry's plan as a tuple. Per entry it walks the
  non-empty submasks of the feasible-model bitset from a table built
  once per ensemble size, and picks each candidate's finish times out
  of ``times + bumped`` with one precomputed getter per mask. A
  candidate is a ``(sum, times, parent_rank, mask, plan)`` tuple, so a
  plain sort gives the canonical order. On small buffers, the common
  case on the paper's workload, it is the faster form: it pays no
  per-call numpy overhead.
* The **kernel form** keeps the whole table in flat, cell-contiguous
  numpy arrays (finish times, quantised reward, and parent pointers
  for plan reconstruction). Per query it:

  1. bumps every entry once and packs its feasible models into a
     bitset; a mask is feasible where it is a submask of that bitset;
  2. builds only the feasible candidates' finish-time rows, each
     member's bumped time or the parent's time;
  3. buckets the candidates into their target cells with one
     ``lexsort`` on ``(cell, sum, finish_times, parent_rank, mask)``;
  4. Pareto-prunes every bucket simultaneously: each sweep keeps each
     bucket's first surviving candidate and eliminates its victims
     bucket-wide, at most ``max_solutions_per_cell`` sweeps total
     (skipped when every bucket holds one candidate).

  The chosen plan is reconstructed by walking the parent pointers.

After the last query only the best cell is read, so unless
:class:`ScheduleStats` are collected (they count every cell's
frontier) both forms prune that cell alone.

The two forms are **bit-exact**: identical decisions, total utility,
work units and :class:`ScheduleStats` on every instance. That rests on
semantics both forms share:

* **Canonical candidate order.** A cell's candidates are sorted by
  ``(sum(finish_times), finish_times, parent_rank, mask)`` before
  dominance pruning, and the frontier cap keeps the first
  ``max_solutions_per_cell`` survivors of that order. ``parent_rank``
  is the extended entry's position in the previous table flattened in
  ascending-cell order: the kernel's flat row index. It is a total
  tie-break, which matters because two plans that run each model the
  same number of times share bit-identical finish times. The frontier
  is thus a pure function of the candidate *set*, independent of
  enumeration order.
* **Matched float effects.** Each member's finish time is its parent's
  plus one latency, the same single addition in every form; sums
  accumulate left to right (Python's ``sum(tuple)`` order); one
  ``_EPS`` serves as the dominance and deadline tolerance; a skip
  continuation keeps its parent's finish times bit-identically.
* **The same feasibility test.** A candidate is infeasible when its
  latest member finishes after ``deadline - now + _EPS``. Every bumped
  time is above 0 (busy times are clamped at 0 and latencies are
  positive), so that holds exactly when some member's bumped time
  does; an ``inf`` busy time (no deployed worker) fails it.
* **Unified work units.** One unit per non-empty candidate subset per
  frontier entry per query, feasible or not; the skip continuation is
  free (see :class:`~repro.scheduling.problem.ScheduleResult`).
* **Unquantised tie-break.** The final plan comes from the cell with
  the largest quantised reward; one function, :func:`_pick_plan`,
  breaks ties among that cell's entries for both forms.

:mod:`repro.scheduling.dp_reference` keeps Algorithm 1 as written:
every mask tried on every entry, each cell sorted with the canonical
key spelled out. ``tests/scheduling/test_dp_vectorized.py`` and
``benchmarks/bench_sched_throughput.py`` check both forms against it,
calling each form directly (:meth:`DPScheduler.schedule_loop`,
:meth:`DPScheduler.schedule_kernel`) as well as through the size
dispatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, itemgetter, le
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.scheduling.orders import edf_order
from repro.scheduling.problem import (
    QueryRequest,
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)
from repro.scheduling.subsets import MASK_TABLES_CACHE_SIZE
from repro.utils.validation import check_positive

_EPS = 1e-12

#: Largest instance size ``n_queries * 2**n_models`` that
#: :meth:`DPScheduler.schedule` serves with the loop form; larger
#: instances take the kernel. With three models that is up to six
#: queries. Fitted by timing both forms on every instance of four sets
#: (2-vCPU x86-64 host, CPython 3.11): the 1,486 DP calls of three
#: ``paper_dp`` episodes, the 124 fallback calls of six
#: ``paper_learned`` episodes, and ``bench_sched_throughput``'s
#: synthetic instances (1, 2, 3, 4 and 6 models x 1-8 queries) with
#: tight and with loose deadlines. 48 kept every set's summed DP time
#: within 9% of always picking the faster form (32: 38%, 40: 15%,
#: 64: 11%). Re-measured after both forms came to price each frontier
#: entry once, on the 8,603 DP calls of one seed-1 ``paper_dp`` cycle
#: and one ``paper_learned`` cycle (fastest of 5 per call): the loop
#: form is now the faster one up to eight queries on three models
#: (size 64) and the kernel from nine, and 48 stays within 6.4% of
#: always picking the faster form (40: 14%, 56: 5.4%, 64: 4.5%, 96:
#: 9.1%). It stays 48 because the learned scheduler's size gate reads
#: the same predicate (:func:`in_loop_form`): moving it would change
#: which buffers ``paper_learned`` rolls out, and so its records.
#: ``BENCH_sched.json`` records the per-size crossover on the
#: synthetic instances, whose larger frontiers favour a smaller
#: constant.
LOOP_FORM_MAX_SIZE = 48


def in_loop_form(instance: SchedulingInstance) -> bool:
    """Whether :meth:`DPScheduler.schedule` serves ``instance`` in the
    loop form: ``n_queries * 2**n_models <= LOOP_FORM_MAX_SIZE``.

    The learned scheduler reads the same decision to hand these
    instances to the DP before featurizing them."""
    return instance.n_queries << instance.n_models <= LOOP_FORM_MAX_SIZE


def _left_to_right_sum(matrix: np.ndarray) -> np.ndarray:
    """Row sums accumulated column-by-column, matching Python's built-in
    ``sum(tuple)`` rounding so canonical-order ties resolve identically
    in both forms."""
    total = np.zeros(matrix.shape[0])
    for k in range(matrix.shape[1]):
        total = total + matrix[:, k]
    return total


def _prune_buckets(
    times: np.ndarray, bucket_starts: np.ndarray, cap: int
) -> np.ndarray:
    """Pareto-prune every cell's candidate bucket simultaneously.

    ``times`` holds all candidates, bucket-contiguous and in canonical
    (sum, finish_times, choices) order within each bucket;
    ``bucket_starts`` are the bucket boundaries (ending with ``len``).
    Returns a keep-mask with at most ``cap`` survivors per bucket.

    A vector is dominated when some kept vector in its bucket is
    componentwise ``<= + eps``; canonical order guarantees dominators
    precede their victims. Sweep ``k`` keeps each bucket's first
    still-alive candidate (its ``k``-th frontier entry) and eliminates
    that entry's victims bucket-wide — one ``reduceat`` + one
    broadcast comparison per sweep, at most ``cap`` sweeps, no
    per-bucket Python. This reproduces the loop form's sequential
    greedy prune exactly: after sweep ``k`` every alive candidate has
    been tested against its bucket's first ``k`` kept entries.
    """
    total = times.shape[0]
    starts = bucket_starts[:-1]
    sizes = np.diff(bucket_starts)
    positions = np.arange(total)
    # Sentinel row: +inf never dominates, so dead buckets sweep nothing.
    times_ext = np.concatenate([times, np.full((1, times.shape[1]), np.inf)])
    alive = np.ones(total, dtype=bool)
    kept = np.zeros(total, dtype=bool)
    for _ in range(cap):
        heads = np.minimum.reduceat(
            np.where(alive, positions, total), starts
        )
        live = heads[heads < total]
        if live.size == 0:
            break
        kept[live] = True
        dominator = np.repeat(heads, sizes)
        dominated = np.all(
            times_ext[dominator] <= times + _EPS, axis=1
        )
        alive &= ~dominated
    return kept


def _backtrack(
    parents: List[np.ndarray], masks: List[np.ndarray], row: int, level: int
) -> Tuple[int, ...]:
    """The mask choices of entry ``row`` at table level ``level``
    (levels index ``parents``/``masks``; level -1 is the empty plan)."""
    choices: List[int] = []
    while level >= 0:
        choices.append(int(masks[level][row]))
        row = int(parents[level][row])
        level -= 1
    return tuple(reversed(choices))


@dataclass
class ScheduleStats:
    """Explainability snapshot of one ``schedule()`` call.

    Populated only when :attr:`DPScheduler.collect_stats` is True (the
    decision-explain path); the default scheduling path never builds it.

    Attributes:
        frontier_sizes: Pareto-frontier entries after each DP level —
            one value per query, in EDF order (the order decisions are
            returned in).
        n_cells: Distinct quantised-reward cells in the final frontier.
        candidate_masks: Per query (EDF order), the masks that were
            deadline-feasible from at least one frontier entry, sorted.
            Mask 0 (skip) is always a candidate.
        phase_wall: Real wall-clock seconds per internal step phase for
            this call (see :data:`DP_PHASES`); empty unless
            :attr:`DPScheduler.profile` was also on.
    """

    frontier_sizes: List[int] = field(default_factory=list)
    n_cells: int = 0
    candidate_masks: List[List[int]] = field(default_factory=list)
    phase_wall: Dict[str, float] = field(default_factory=dict)


#: Internal step phases of one ``DPScheduler.schedule()`` call, in
#: execution order, timed per DP level in either form: per-instance
#: table set-up, candidate extension + feasibility, canonical sort +
#: Pareto prune, and plan reconstruction with the final tie-break.
DP_PHASES = ("mask_tables", "extend", "prune", "backtrack")


def _pick_plan(
    queries: List[QueryRequest],
    entries: Iterable[Tuple[Tuple[int, ...], float]],
    work_units: int,
) -> ScheduleResult:
    """The final plan, shared by both forms.

    ``entries`` yields ``(plan, span)`` for each frontier entry of the
    best quantised cell, in canonical order; ``span`` is the entry's
    left-to-right finish-time sum. Quantised ties hide unquantised
    differences, so among them maximise the true reward, then prefer
    the smaller span, then the canonical-first entry.
    """
    best_plan = None
    best_reward = best_span = 0.0
    for plan, span in entries:
        reward = sum(
            float(q.utilities[mask]) for q, mask in zip(queries, plan)
        )
        if best_plan is None or reward > best_reward or (
            reward == best_reward and span < best_span
        ):
            best_plan, best_reward, best_span = plan, reward, span
    decisions = [
        ScheduleDecision(query_id=query.query_id, mask=mask)
        for query, mask in zip(queries, best_plan)
    ]
    return ScheduleResult(
        decisions=decisions,
        total_utility=best_reward,
        work_units=work_units,
    )


# A loop-form table cell holds canonically ordered Pareto-minimal
# (span, finish_times, plan) entries, ``span`` being the left-to-right
# finish-time sum. A candidate is (span, finish_times, parent_rank,
# mask, parent_plan): (parent_rank, mask) is unique within a cell, so
# plain tuple order is the canonical order and never reaches the plan.
_Entry = Tuple[float, Tuple[float, ...], Tuple[int, ...]]
_Candidate = Tuple[float, Tuple[float, ...], int, int, Tuple[int, ...]]


@lru_cache(maxsize=MASK_TABLES_CACHE_SIZE)
def _submask_tables(n_models: int):
    """Per ensemble size: for every bitset ``ok`` of models, the
    non-empty submasks of ``ok`` in ascending order; and for every
    non-empty mask, a getter that picks its candidate's finish times
    out of ``times + bumped`` (``bumped[k]`` for members, ``times[k]``
    for the rest)."""
    n_masks = 1 << n_models
    submasks = []
    for ok in range(n_masks):
        subs = []
        sub = ok
        while sub:
            subs.append(sub)
            sub = (sub - 1) & ok
        submasks.append(tuple(reversed(subs)))
    if n_models == 1:
        # itemgetter of one index returns the item, not a 1-tuple.
        pickers = [None, itemgetter(slice(1, 2))]
    else:
        pickers = [None] + [
            itemgetter(*(
                k + n_models if mask >> k & 1 else k
                for k in range(n_models)
            ))
            for mask in range(1, n_masks)
        ]
    return tuple(submasks), tuple(pickers)


def _prune(candidates: List[_Candidate], cap: int) -> List[_Entry]:
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
        span, times, _, mask, plan = candidates[0]
        return [(span, times, plan + (mask,))]
    candidates.sort()
    kept: List[_Entry] = []
    for span, times, _, mask, plan in candidates:
        if kept:
            shifted = [t + _EPS for t in times]
            dominated = False
            for _, kept_times, _ in kept:
                if all(map(le, kept_times, shifted)):
                    dominated = True
                    break
            if dominated:
                continue
        kept.append((span, times, plan + (mask,)))
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
    """Algorithm 1 cell by cell, each frontier entry priced once."""
    profile = phases is not None
    if profile:
        t_mark = time.perf_counter()
    order = edf_order(instance.queries)
    queries = [instance.queries[i] for i in order]
    # Python floats hold the numpy values' bits and add several times
    # faster than numpy scalars.
    latencies = instance.latencies.tolist()
    n_models = instance.n_models
    n_nonempty = (1 << n_models) - 1
    submasks, pickers = _submask_tables(n_models)
    busy = tuple(instance.busy_until.tolist())
    table: Dict[int, List[_Entry]] = {0: [(sum(busy), busy, ())]}
    if profile:
        phases["mask_tables"] = time.perf_counter() - t_mark

    work_units = 0
    last = len(queries) - 1
    for level, query in enumerate(queries):
        if profile:
            t_mark = time.perf_counter()
        limit = query.deadline - instance.now + _EPS
        quantised = query.quantised_utilities(step).tolist()
        candidates: Dict[int, List[_Candidate]] = {}
        # Entries are ranked by their position in the table flattened
        # in ascending-cell order: the kernel's flat row index.
        rank = 0
        for u in sorted(table):
            for span, times, plan in table[u]:
                # The skip continuation keeps the entry's times.
                skip = (span, times, rank, 0, plan)
                cell = candidates.get(u)
                if cell is None:
                    candidates[u] = [skip]
                else:
                    cell.append(skip)
                # The feasible masks are the submasks of ``ok``: the
                # per-mask deadline test, exactly, since every bumped
                # time is above 0 (see the module docstring).
                bumped = tuple(map(add, times, latencies))
                ok = 0
                bit = 1
                for t in bumped:
                    if t <= limit:
                        ok |= bit
                    bit <<= 1
                if ok:
                    both = times + bumped
                    for mask in submasks[ok]:
                        new_times = pickers[mask](both)
                        candidate = (
                            sum(new_times), new_times, rank, mask, plan
                        )
                        target = u + quantised[mask]
                        cell = candidates.get(target)
                        if cell is None:
                            candidates[target] = [candidate]
                        else:
                            cell.append(candidate)
                rank += 1
        # The skip continuation is free; every non-empty mask is one
        # work unit per entry, feasible or not (unified accounting).
        work_units += rank * n_nonempty
        if profile:
            t_prune = time.perf_counter()
            phases["extend"] += t_prune - t_mark
        if level == last and stats is None:
            # Only the best cell is read after the last level.
            best = max(candidates)
            table = {best: _prune(candidates[best], cap)}
        else:
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
        ((plan, span) for span, _, plan in table[max(table)]),
        work_units,
    )
    if profile:
        phases["backtrack"] = time.perf_counter() - t_mark
    if stats is not None:
        stats.n_cells = len(table)
    return result


def _kernel_form(
    instance: SchedulingInstance,
    step: float,
    cap: int,
    stats: Optional[ScheduleStats],
    phases: Optional[Dict[str, float]],
) -> ScheduleResult:
    """Algorithm 1 over flat numpy arrays, one vectorised pass per level."""
    profile = phases is not None
    if profile:
        t_mark = time.perf_counter()
    order = edf_order(instance.queries)
    queries = [instance.queries[i] for i in order]
    n_models = instance.n_models
    n_masks = 1 << n_models
    membership = instance.mask_membership  # (n_masks, m) bool
    latencies = instance.latencies
    all_masks = np.arange(n_masks)
    model_bits = 1 << np.arange(n_models)
    quantised = instance.quantised_utilities(step)[np.asarray(order)]
    if profile:
        phases["mask_tables"] = time.perf_counter() - t_mark

    frontier = instance.busy_until.astype(float, copy=True)[None, :]
    cell_u = np.zeros(1, dtype=np.int64)
    parents: List[np.ndarray] = []
    masks: List[np.ndarray] = []
    work_units = 0
    last = len(queries) - 1
    for qi, query in enumerate(queries):
        limit = query.deadline - instance.now + _EPS
        du = quantised[qi]  # (n_masks,) int64
        work_units += frontier.shape[0] * (n_masks - 1)

        # Price each entry once: a mask is feasible iff all its members'
        # bumped times meet the limit (the loop form's bitset test), so
        # only feasible (entry, mask) pairs are ever materialised. Mask
        # 0 is a submask of every bitset: skipping is always allowed.
        if profile:
            t_mark = time.perf_counter()
        bumped = frontier + latencies
        ok = (bumped <= limit) @ model_bits
        feasible = (ok[:, None] & all_masks) == all_masks
        if profile:
            phases["extend"] += time.perf_counter() - t_mark
        if stats is not None:
            stats.candidate_masks.append(
                np.nonzero(feasible.any(axis=0))[0].tolist()
            )

        # A candidate takes its members' bumped times and keeps its
        # parent's other times bit-identically (mask 0 keeps them all).
        if profile:
            t_mark = time.perf_counter()
        sol_idx, mask_idx = np.nonzero(feasible)
        target_u = cell_u[sol_idx] + du[mask_idx]
        if qi == last and stats is None:
            # Only the best cell is read after the last level.
            top = np.flatnonzero(target_u == target_u.max())
            sol_idx, mask_idx = sol_idx[top], mask_idx[top]
            target_u = target_u[top]
        cand_times = np.where(
            membership[mask_idx], bumped[sol_idx], frontier[sol_idx]
        )
        sums = _left_to_right_sum(cand_times)
        if profile:
            phases["extend"] += time.perf_counter() - t_mark

        # One sort: primary target cell, then the full canonical
        # (sum, finish_times, parent_rank, mask) order within it
        # (np.lexsort's last key is the most significant). The
        # frontier rows are already in ascending-cell canonical
        # order, so ``sol_idx`` *is* the parent rank.
        if profile:
            t_mark = time.perf_counter()
        by_cell = np.lexsort(
            [mask_idx, sol_idx]
            + [cand_times[:, k] for k in range(n_models - 1, -1, -1)]
            + [sums, target_u]
        )
        sol_s = sol_idx[by_cell]
        mask_s = mask_idx[by_cell]
        times_s = cand_times[by_cell]
        u_s = target_u[by_cell]
        edges = np.flatnonzero(u_s[1:] != u_s[:-1]) + 1
        if edges.size + 1 < u_s.size:
            # Some bucket holds more than one candidate.
            kept = _prune_buckets(
                times_s, np.concatenate([[0], edges, [u_s.size]]), cap
            )
            sol_s, mask_s = sol_s[kept], mask_s[kept]
            times_s, u_s = times_s[kept], u_s[kept]
        frontier, cell_u = times_s, u_s
        parents.append(sol_s)
        masks.append(mask_s)
        if profile:
            phases["prune"] += time.perf_counter() - t_mark
        if stats is not None:
            stats.frontier_sizes.append(int(frontier.shape[0]))

    if profile:
        t_mark = time.perf_counter()
    rows = np.nonzero(cell_u == cell_u.max())[0]
    spans = _left_to_right_sum(frontier[rows])
    result = _pick_plan(
        queries,
        (
            (_backtrack(parents, masks, int(row), last), span)
            for row, span in zip(rows, spans)
        ),
        work_units,
    )
    if profile:
        phases["backtrack"] = time.perf_counter() - t_mark
    if stats is not None:
        stats.n_cells = int(np.unique(cell_u).size)
    return result


class DPScheduler:
    """Near-optimal local scheduler with quantisation step δ.

    :meth:`schedule` runs the loop form on instances of size
    ``n_queries * 2**n_models`` up to :data:`LOOP_FORM_MAX_SIZE` and
    the kernel above it; both give the same plan, so the choice moves
    only wall time. :meth:`schedule_loop` and :meth:`schedule_kernel`
    run one form at any size.

    Args:
        delta: Reward quantisation step (paper default 0.01; Fig. 12 and
            Fig. 21 sweep it). Pass ``None`` to derive δ adaptively from
            ``epsilon`` as Theorem 3 prescribes: δ = ε/N for a buffer of
            N queries, guaranteeing a (1 − ε) approximation at every
            buffer size instead of only at one.
        epsilon: Approximation target used when ``delta`` is None.
        max_solutions_per_cell: Safety cap on a cell's Pareto frontier,
            an integer >= 1; the first entries in canonical order are
            kept.

    Setting :attr:`collect_stats` makes each ``schedule()`` call leave
    a :class:`ScheduleStats` in :attr:`last_stats` (frontier sizes,
    reward cells, per-query candidate masks). The flag is checked once
    per call plus a few times per query. With it on, the last level
    prunes every cell, not only the best one, to count their
    frontiers; the plan is bit-identical either way.

    Setting :attr:`profile` additionally wraps the four internal step
    phases (:data:`DP_PHASES`) in ``perf_counter`` timers. Each call
    leaves its per-phase wall clock in :attr:`last_phase_wall` and
    accumulates run totals into :attr:`phase_wall`; when
    ``collect_stats`` is also on the same dict lands on
    ``last_stats.phase_wall``. Timers only *read* the clock — they
    never touch the DP state, so profiled plans stay bit-identical.
    Neither flag changes which form runs.
    """

    name = "dp"

    def __init__(
        self,
        delta: Optional[float] = 0.01,
        epsilon: float = 0.1,
        max_solutions_per_cell: int = 8,
    ):
        self.delta = None if delta is None else check_positive("delta", delta)
        self.epsilon = check_positive("epsilon", epsilon)
        # A count, not a flag: bool is refused although it is an int.
        if (
            isinstance(max_solutions_per_cell, bool)
            or not isinstance(max_solutions_per_cell, (int, np.integer))
            or max_solutions_per_cell < 1
        ):
            raise ValueError(
                f"max_solutions_per_cell must be an integer >= 1, got "
                f"{max_solutions_per_cell!r}"
            )
        self.max_solutions_per_cell = int(max_solutions_per_cell)
        self.collect_stats = False
        self.last_stats: Optional[ScheduleStats] = None
        self.profile = False
        self.phase_wall: Dict[str, float] = {p: 0.0 for p in DP_PHASES}
        self.last_phase_wall: Optional[Dict[str, float]] = None

    def step_for(self, n_queries: int) -> float:
        """The quantisation step used for a buffer of ``n_queries``."""
        if self.delta is not None:
            return self.delta
        return self.epsilon / max(n_queries, 1)

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Solve the local subproblem; decisions come back in EDF order.

        The form is chosen from the instance's size alone."""
        if in_loop_form(instance):
            return self._solve(instance, _loop_form)
        return self._solve(instance, _kernel_form)

    def schedule_loop(self, instance: SchedulingInstance) -> ScheduleResult:
        """:meth:`schedule` in the loop form, at any size."""
        return self._solve(instance, _loop_form)

    def schedule_kernel(self, instance: SchedulingInstance) -> ScheduleResult:
        """:meth:`schedule` in the kernel form, at any size."""
        return self._solve(instance, _kernel_form)

    def _solve(self, instance: SchedulingInstance, form) -> ScheduleResult:
        stats = None
        if self.collect_stats:
            stats = self.last_stats = ScheduleStats()
        phases = None
        if self.profile:
            # One shared dict: last_phase_wall, last_stats.phase_wall
            # and the emitters all see the same totals for this call.
            phases = {p: 0.0 for p in DP_PHASES}
            self.last_phase_wall = phases
            if stats is not None:
                stats.phase_wall = phases
        n = instance.n_queries
        if n == 0:
            return ScheduleResult(decisions=[], total_utility=0.0, work_units=0)
        result = form(
            instance, self.step_for(n), self.max_solutions_per_cell,
            stats, phases,
        )
        if phases is not None:
            for p in DP_PHASES:
                self.phase_wall[p] += phases[p]
        return result
