"""Shared synthetic data for the scheduling tests.

``random_instance`` draws the paper-shaped instances of the DP tests:
one to three models with the text-matching ensemble's latency spread
and monotone utilities. The rest is a fixed deployment of up to four
models (three by default) whose utility rows derive deterministically
from a per-query difficulty score — the property the real pipeline has
and distillation relies on to reconstruct logged instances exactly.
``numpy_greedy`` is the Greedy scheduler's oracle. Not collected by
pytest (no ``test_`` prefix).
"""

import numpy as np

from repro.obs.explain import DecisionLog, DecisionRecord
from repro.scheduling.dp import DPScheduler
from repro.scheduling.greedy import _EPS
from repro.scheduling.orders import ORDERS
from repro.scheduling.problem import (
    QueryRequest,
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)

LATENCIES = np.array([0.02, 0.05, 0.09, 0.14])
QUALITY = np.array([0.5, 0.65, 0.8, 0.88])
LATENCIES3 = LATENCIES[:3]
QUALITY3 = QUALITY[:3]


def monotone_utilities(rng, m):
    """Random utilities satisfying diminishing marginal utility."""
    singles = np.sort(rng.uniform(0.3, 0.8, m))
    u = np.zeros(1 << m)
    for mask in range(1, 1 << m):
        members = [k for k in range(m) if mask >> k & 1]
        u[mask] = min(
            1.0, max(singles[k] for k in members) + 0.08 * (len(members) - 1)
        )
    return u


def random_instance(n, m, seed, horizon=(0.1, 0.3)):
    """``n`` queries on ``m <= 3`` models with monotone utilities."""
    rng = np.random.default_rng(seed)
    latencies = np.array([0.02, 0.07, 0.09][:m])
    queries = []
    for i in range(n):
        arrival = float(rng.uniform(0, 0.05))
        deadline = arrival + float(rng.uniform(*horizon))
        queries.append(
            QueryRequest(
                i, arrival, deadline, monotone_utilities(rng, m),
                score=float(rng.uniform(0, 1)),
            )
        )
    busy = rng.uniform(0, 0.05, m)
    return SchedulingInstance(queries, latencies, busy, now=0.0)


def synthetic_utilities(scores, n_models=3):
    """Deterministic ``scores -> (n, 2**n_models)`` utility rows: a
    mask's reward is its members' combined coverage scaled by
    difficulty, rounded to two decimals so quantised ties occur."""
    scores = np.asarray(scores, dtype=float)
    member = (
        (np.arange(1 << n_models)[:, None]
         >> np.arange(n_models)[None, :]) & 1
    ).astype(bool)
    coverage = 1.0 - np.prod(
        np.where(member, 1.0 - QUALITY[None, :n_models], 1.0), axis=1
    )
    rows = np.round(coverage[None, :] * (0.4 + 0.6 * scores[:, None]), 2)
    rows[:, 0] = 0.0
    return rows


def synthetic_instance(rng, n_queries, now=0.0, first_qid=0,
                       downed_model=None, n_models=3):
    """One random instance with score-derived utility rows."""
    busy = rng.uniform(0.0, 0.05, size=n_models)
    if downed_model is not None:
        busy[downed_model] = np.inf
    queries = []
    for j in range(n_queries):
        score = float(rng.uniform(0.0, 1.0))
        queries.append(QueryRequest(
            query_id=first_qid + j,
            arrival=now,
            deadline=now + float(rng.uniform(0.08, 0.6)),
            utilities=synthetic_utilities([score], n_models)[0],
            score=score,
        ))
    return SchedulingInstance(
        queries=queries, latencies=LATENCIES[:n_models], busy_until=busy,
        now=now,
    )


def synthetic_log(n_rounds=12, seed=0, n_models=3):
    """A DecisionLog of DP-solved synthetic rounds, one round per
    instance — the oracle data an all-DP serving run would log."""
    rng = np.random.default_rng(seed)
    dp = DPScheduler(delta=0.05)
    log = DecisionLog()
    qid = 0
    for i in range(n_rounds):
        now = 5.0 * (i + 1)
        n = int(rng.integers(3, 7))
        instance = synthetic_instance(
            rng, n, now=now, first_qid=qid, n_models=n_models
        )
        qid += n
        by_id = {q.query_id: q for q in instance.queries}
        for decision in dp.schedule(instance).decisions:
            query = by_id[decision.query_id]
            log.add(DecisionRecord(
                query_id=decision.query_id,
                decided_at=now,
                committed_at=now,
                action="dispatch" if decision.mask else "reject",
                chosen_mask=decision.mask,
                score=query.score,
                deadline=query.deadline,
                batch_size=n,
                buffer_depth=0,
                busy_until=[float(b) for b in instance.busy_until],
            ))
    return log


def numpy_greedy(instance, order="edf"):
    """``GreedyScheduler(order).schedule(instance)`` vectorised over the
    mask grid: the form Greedy had before its plain-Python loop, kept
    as the loop's oracle. Same tie-break: highest reward within
    ``_EPS``, then earliest completion within ``_EPS``, then lowest
    mask."""
    if instance.n_queries == 0:
        return ScheduleResult(decisions=[], total_utility=0.0, work_units=0)

    queries = [instance.queries[i] for i in ORDERS[order](instance.queries)]
    n_masks = 1 << instance.n_models
    membership = instance.mask_membership  # (n_masks, m) bool
    increments = np.where(membership, instance.latencies, 0.0)
    masks = np.arange(n_masks)
    times = instance.busy_until.astype(float, copy=True)

    decisions = []
    total = 0.0
    work_units = instance.n_queries * (n_masks - 1)
    for query in queries:
        relative_deadline = query.deadline - instance.now
        completion = np.where(
            membership, times[None, :] + increments, -np.inf
        ).max(axis=1)  # (n_masks,); mask 0 -> -inf
        rewards = query.utilities
        eligible = (
            (masks > 0)
            & (completion <= relative_deadline + _EPS)
            & (rewards > _EPS)
        )
        best_mask = 0
        if np.any(eligible):
            contenders = rewards >= rewards[eligible].max() - _EPS
            contenders &= eligible
            fastest = completion[contenders].min()
            contenders &= completion <= fastest + _EPS
            best_mask = int(masks[contenders][0])
        if best_mask:
            times = times + increments[best_mask]
            total += float(rewards[best_mask])
        decisions.append(
            ScheduleDecision(query_id=query.query_id, mask=best_mask)
        )
    return ScheduleResult(
        decisions=decisions, total_utility=total, work_units=work_units
    )
